"""Pinned SHA-256 digests of the files that ``simulate``, ``decompose`` and ``classify --torus`` write.

A refactor of the sampling or decomposition kernels, or of the writers and
readers of these files, must leave these bytes alone. Each digest covers one
``ensemble.json`` or ``decomposition.json`` with its ``generated_at`` line
removed. The record files hold only integer ids and fixed strings, so
floating-point summation order cannot move a digest. The
Z500 digests at depth 50 and the Z130 uniform one equal those taken while ids
were still int64, so they guard the narrow id dtypes against overflow.

To re-derive a digest after an intended output change, run
``python tests/test_golden_records.py``; it prints the table.
"""

import hashlib
import json
import re

import pytest

from convlimit.cli import main
from convlimit.solutions import CHUNK_SIZE

# Z6 relabelled so that the identity is element 3: a * b = a + b - 3 (mod 6).
_Z6_IDENTITY_3 = [[(a + b - 3) % 6 for b in range(6)] for a in range(6)]


def _ramp(n: int) -> list[float]:
    """Weights on every element of Z_n, proportional to 1, 2, 3, 4, 5, 1, 2, ..."""
    raw = [g % 5 + 1 for g in range(n)]
    return [x / sum(raw) for x in raw]


def _coset(n: int, start: int, step: int) -> list[float]:
    """Weights uniform on the coset start + <step> of Z_n."""
    w = [0.0] * n
    for g in range(start, start + n, step):
        w[g % n] = step / n
    return w

SPECS = {
    "z4-case-c-prefix": {
        "group": {"kind": "builtin", "name": "Z4"},
        "prefix": [{"kind": "delta", "at": 1}, {"kind": "weights", "w": [0.1, 0.2, 0.3, 0.4]}],
        "tail": {"kind": "constant", "mu": {"kind": "weights", "w": [0.5, 0.0, 0.5, 0.0]}},
    },
    "z4-case-b": {
        "group": {"kind": "builtin", "name": "Z4"},
        "prefix": [],
        "tail": {"kind": "constant", "mu": {"kind": "delta", "at": 1}},
    },
    "s3": {
        "group": {"kind": "builtin", "name": "S3"},
        "prefix": [{"kind": "delta", "at": 2}],
        "tail": {"kind": "constant", "mu": {"kind": "weights", "w": [0.5, 0.5, 0, 0, 0, 0]}},
    },
    "d4-periodic": {
        "group": {"kind": "builtin", "name": "D4"},
        "prefix": [],
        "tail": {"kind": "periodic", "mus": [
            {"kind": "delta", "at": 1},
            {"kind": "weights", "w": [0.5, 0, 0, 0, 0.5, 0, 0, 0]},
        ]},
    },
    "q8": {
        "group": {"kind": "builtin", "name": "Q8"},
        "prefix": [],
        "tail": {"kind": "constant", "mu": {"kind": "weights", "w": [0.3, 0.7, 0, 0, 0, 0, 0, 0]}},
    },
    "z6-identity-3": {
        "group": {"kind": "table", "mul": _Z6_IDENTITY_3, "identity": 3},
        "prefix": [{"kind": "delta", "at": 4}],
        "tail": {"kind": "constant", "mu": {"kind": "weights", "w": [0, 0, 0, 0.5, 0, 0.5]}},
    },
    "q8-case-c": {
        "group": {"kind": "builtin", "name": "Q8"},
        "prefix": [{"kind": "weights", "w": [0.4, 0.3, 0.2, 0.1, 0, 0, 0, 0]}],
        "tail": {"kind": "constant", "mu": {"kind": "weights", "w": [0.5, 0, 0.5, 0, 0, 0, 0, 0]}},
    },
    # orders past the narrow id dtypes: ids of Z130 overflow int8, and the
    # flat table index a * 500 + b of Z500 overflows int16
    "zn130": {
        "group": {"kind": "builtin", "name": "Zn:130"},
        "prefix": [{"kind": "weights", "w": _ramp(130)}],
        "tail": {"kind": "constant", "mu": {"kind": "weights", "w": _coset(130, 7, 10)}},
    },
    "zn500": {
        "group": {"kind": "builtin", "name": "Zn:500"},
        "prefix": [{"kind": "weights", "w": _ramp(500)}],
        "tail": {"kind": "constant", "mu": {"kind": "weights", "w": _coset(500, 3, 5)}},
    },
}

# Two circle specs, as in the torus acceptance criterion: half atoms on
# {0, 1/2} (case C) and the Gaussian schedule sd_k = 0.1 * 0.5^|k| (case B).
TORUS_SPECS = {
    "half-atoms": {"prefix": [], "tail": {"kind": "constant", "mu": {
        "kind": "atoms", "points": [[0.0, 0.5], [0.5, 0.5]]}}},
    "gauss-schedule": {"prefix": [], "tail": {"kind": "gauss_schedule", "c": 0.1, "r": 0.5}},
}

# (spec, paths): every spec at a few paths, and one run that spans two chunks.
RUNS = [(name, 6) for name in SPECS] + [("z4-case-c-prefix", CHUNK_SIZE + 3)]
# (spec, paths, depth): every spec at a fixed depth, twice its depth_used of
# the deepening engine (so these bytes hold while the certified depth moves),
# and one window deeper than that engine's deepest_depth (164)
DEEP_RUNS = [
    ("z4-case-c-prefix", 6, 54), ("z4-case-b", 6, 50), ("s3", 6, 52), ("d4-periodic", 6, 56),
    ("q8", 6, 192), ("z6-identity-3", 6, 108), ("q8-case-c", 6, 164), ("zn130", 6, 50),
    ("zn500", 6, 50), ("q8-case-c", 6, 201),
]

GOLDEN = {
    "z4-case-c-prefix/6": {
        "simulate-extremal": "a4dc281040d215741a9bc10eb77176eff6ecd2d25f0f21ce7541eeb7282c8f5b",
        "simulate-mixture": "69d09b3246c7b7e106e097127686a72ab574d4e44008d0d9c7b49411d82e8480",
        "simulate-uniform": "0011619eb74f04fb53df5ed92db8fe6dd0e10d8f309e33c9aac284e79457078b",
        "decompose-fresh": "c7ee6b3de4591a6f4e7a6f17dd1b2e0e882368cd546f89d42c92fcfc7fe6bf50",
        "decompose-file": "c7ee6b3de4591a6f4e7a6f17dd1b2e0e882368cd546f89d42c92fcfc7fe6bf50",
    },
    "z4-case-b/6": {
        "simulate-extremal": "02bed8fc9d259a4ed85b7339560ae5b3ef2145cf7f7c640057a4459da7781dbb",
        "simulate-mixture": "46dd0bad4caaeed6ba55146754492da1bb8836a9a653f0646d0b59540a50598a",
        "simulate-uniform": "6b8845c90eb29669b11ea7ee130ac9e19d450e33bef9d1b46e700418c2951ae3",
        "decompose-fresh": "ea7022a10ca3f4d40ae5880637814c70a1b37fd7897fe94534336caeba097cd6",
        "decompose-file": "ea7022a10ca3f4d40ae5880637814c70a1b37fd7897fe94534336caeba097cd6",
    },
    "s3/6": {
        "simulate-extremal": "a579dab850b4142672b736b1f8f6605524305b2d1b61b21af023d1c16125b362",
        "simulate-mixture": "41b0cd7deb42c14b617b88398a3328406d39ae8d67d73f52908d30d698512797",
        "simulate-uniform": "c9eed4dd813e945a38b8694d42932b95f395744c42971ded34808cae8286e593",
        "decompose-fresh": "899570b596fbc7190b6bcd1b9e2c973e5261b758f80e6f157c55d0f05568dd3c",
        "decompose-file": "899570b596fbc7190b6bcd1b9e2c973e5261b758f80e6f157c55d0f05568dd3c",
    },
    "d4-periodic/6": {
        "simulate-extremal": "900579a1866e868fb1592c63a50448826c56f5c33f2c12a760bceef0faff479d",
        "simulate-mixture": "9b28272e6f7945c0c034f2be73625ed44eead39decaba1b43f6fc7fe1bdcf190",
        "simulate-uniform": "a2e6442913bffe5121c7e0f2c19aea2b1dfa19b19e3692f9bab471fe55526221",
        "decompose-fresh": "578528b03cacedd45152119f98be3f5718ac5f0e5b9b050ac565a8110804bd54",
        "decompose-file": "578528b03cacedd45152119f98be3f5718ac5f0e5b9b050ac565a8110804bd54",
    },
    "q8/6": {
        "simulate-extremal": "c4dd5e590f4df0166bcd4c6626d8dc5772511f2dd3c59df0c4a9acf82a8fda8b",
        "simulate-mixture": "3aff6f70b5c4363490ecbc774c318f75c4b56e25e1ddab2b432ce067ba49a480",
        "simulate-uniform": "ff81cf8ee674f6f5c0bbb4cb06903d5e687a43e9c7c6fc587032c038b1632e59",
        "decompose-fresh": "461b75e1abd9defec47e819ca640a50b4f738cd31e7d6e3eee13662331ab3efa",
        "decompose-file": "461b75e1abd9defec47e819ca640a50b4f738cd31e7d6e3eee13662331ab3efa",
    },
    "z6-identity-3/6": {
        "simulate-extremal": "9397c727b3f66e157113c078d17215d87e63372bd306fadee949bc788bd3c478",
        "simulate-mixture": "13ec103ee494b2f6c22bbac52d0c6f5dfab482ba7a87e779a30bdb86981542fc",
        "simulate-uniform": "228061f094702988caf8528d71c7e495d7b09df55d83b46c90f48115de8e80e7",
        "decompose-fresh": "75a178bd2d26323ca26e4ba5f2e4f84def0f1099767feec1ee2ceab2c6cc8e28",
        "decompose-file": "75a178bd2d26323ca26e4ba5f2e4f84def0f1099767feec1ee2ceab2c6cc8e28",
    },
    "q8-case-c/6": {
        "simulate-extremal": "ce05f6aea80277e8d3f5bf7b90012e590d0afe910122a9d3eaf1f67566bb51b6",
        "simulate-mixture": "f2120fd29f3dad2f1d1b4fb6e5b8a3f7e0c1a744c3cce3f135d5474c76104c70",
        "simulate-uniform": "572982ee1e06554466b4581bfe67088683ed681cc1cd463dcc4f7eb253eafa5f",
        "decompose-fresh": "54b8e68b2119c47f173ae7dc7dfafcf7a0bc355129e7293435515c7518975d27",
        "decompose-file": "54b8e68b2119c47f173ae7dc7dfafcf7a0bc355129e7293435515c7518975d27",
    },
    "zn130/6": {
        "simulate-extremal": "280a8ee58edd515a0ccf16974bfaf85cb3bdff0e53fdd58f80f0792cb1308347",
        "simulate-mixture": "f98677ed4cb352ad437c2212a6111f7e1e0a9432e4f5804941bbd25372fbcb16",
        "simulate-uniform": "e06d6ccfa38014dea8693b7b2ac17af62a93d6826df414ed9d08a65d8bae8496",
        "decompose-fresh": "5d134540d84ef043a239966e9b055529a9c67ede0f8b2f9386623b6f60a94df7",
        "decompose-file": "5d134540d84ef043a239966e9b055529a9c67ede0f8b2f9386623b6f60a94df7",
    },
    "zn500/6": {
        "simulate-extremal": "8abe268744dec3f4afb25d870443be36e496f43dcd73fc7e36aa4a6d05d2dca7",
        "simulate-mixture": "bfbcd14f536fb9e9e2f7eac28998f1e100df192fe59815cd72c7e50aa570d834",
        "simulate-uniform": "74420d0fba839387d3a1e5bd4dffc21b7d454245850e6a1f344116fea8f544c4",
        "decompose-fresh": "ba9e52ac38c4d67e68d471eac8d4b4fa380cf6e3840d992ef15054945a6efb7e",
        "decompose-file": "ba9e52ac38c4d67e68d471eac8d4b4fa380cf6e3840d992ef15054945a6efb7e",
    },
    "z4-case-c-prefix/4099": {
        "simulate-extremal": "385e96562ee03ff3af695866dff33541158f26238f4645a18be8737a06d09ea8",
        "simulate-mixture": "e04fbfa153f0d3231ceab0347fbad1c5c196d305a3d90ff97f39c676cb1d501c",
        "simulate-uniform": "38e87adbbd87d0826efcef1b1397781a3a5d2ecdd3310b6a0209b2f909212ccd",
        "decompose-fresh": "4252a9e7de9bf4e16b06e69d1ef88fd9646337a99631f43c1c30dac556f59c25",
        "decompose-file": "4252a9e7de9bf4e16b06e69d1ef88fd9646337a99631f43c1c30dac556f59c25",
    },
    "z4-case-c-prefix/6/54": {
        "simulate-extremal": "72d9d0020021523a4a9c705e2b780dc177117d437806da0e8edfff9543d0d291",
        "simulate-mixture": "8caa23de5b322afe58d4c6ca3f744800c885964d766155f02766d441b7f9f40f",
        "simulate-uniform": "c8f5f60551394736891136f6da8027f43f8390e976127d6575e12dd55c94bf8f",
        "decompose-fresh": "01b6325b8aa19b5566774a55ec67464155394d6c00fd56d5098879d50bd0262e",
        "decompose-file": "01b6325b8aa19b5566774a55ec67464155394d6c00fd56d5098879d50bd0262e",
    },
    "z4-case-b/6/50": {
        "simulate-extremal": "921aaf85ce9db5b6f8ce3974d25e23ecc4f76129439ba4dbab0fef7f88da527a",
        "simulate-mixture": "77c41212554a003c43e4367757a06db9f45217b7245df2bd6af54cd29be74e5f",
        "simulate-uniform": "0fe0d270d276d5b812d1183821c53489f6f003988f9fde7ff91e242b494978af",
        "decompose-fresh": "541f34ccd90f66beb662d974a7098d01186fd11498aeec4cc879183ac66547d8",
        "decompose-file": "541f34ccd90f66beb662d974a7098d01186fd11498aeec4cc879183ac66547d8",
    },
    "s3/6/52": {
        "simulate-extremal": "52e6e97908e60507159ff3723d4713bda9101d109021440adde1d51c5e200f49",
        "simulate-mixture": "c0d62a5a2138ecff5738e904ceb872a08326d9c22495ce7acb9a51a99c456dec",
        "simulate-uniform": "e72c58eb754d7ff7e4842ff22537b485008af3c32cb984b853e54112d7e1ef80",
        "decompose-fresh": "36de098e92591c896d80237e3a2a8e3e671033129d605d4bffc037a59a4b30e8",
        "decompose-file": "36de098e92591c896d80237e3a2a8e3e671033129d605d4bffc037a59a4b30e8",
    },
    "d4-periodic/6/56": {
        "simulate-extremal": "f7ebfc8cd9baa7566c561d976b0bacc444698ef621f33a5f296326ef38273704",
        "simulate-mixture": "9515efc04c71767b0bc195a92698c84f9b1ab61ea731b0c35e094432b9f4be64",
        "simulate-uniform": "f01f1b6264f0c2820034afb87f0dc6e6dcc95ef66f2b16a16ae3c20f6df78cf5",
        "decompose-fresh": "e7f8b7e804f30b383283d007e8a798a9ef0f6de9bf3b1feed6cfc0719f558cf8",
        "decompose-file": "e7f8b7e804f30b383283d007e8a798a9ef0f6de9bf3b1feed6cfc0719f558cf8",
    },
    "q8/6/192": {
        "simulate-extremal": "911039d8d8de427c8a44aeee80781a7d3f614da033c1d6d2d0e1b5f570318963",
        "simulate-mixture": "f5f3bd154365e855810fd8715202c680ae8be2743b9ef309e4b91d7d6b33c152",
        "simulate-uniform": "1a679e26ec0575f3dbb599d1a0565d8afc2b14da2d86883fbee207bf9d0eea22",
        "decompose-fresh": "0155063c87e8b6760f2d07e596b18a00ff422ef336f4cd7c20fa3e645f25a9ae",
        "decompose-file": "0155063c87e8b6760f2d07e596b18a00ff422ef336f4cd7c20fa3e645f25a9ae",
    },
    "z6-identity-3/6/108": {
        "simulate-extremal": "ca2b3b757b8066a4736d084366233ab391606154d830096bce83661ca2cdcbf5",
        "simulate-mixture": "d774f08623ea75be3bd5958039c90c08eeb39bec2b92d4dabe9373916bd18a32",
        "simulate-uniform": "9e5af0156920d077e2ddd5dce67b796b2d12a28aa753a687023af7540c0fb41e",
        "decompose-fresh": "05aeae2bf230bb4ef9e3af08e9a7cf4748b28cf72719329fb53831c37e723785",
        "decompose-file": "05aeae2bf230bb4ef9e3af08e9a7cf4748b28cf72719329fb53831c37e723785",
    },
    "q8-case-c/6/164": {
        "simulate-extremal": "08f7b8b6ec67da69ce53b730bb7e9c030437a6aef6ee02b6154184757d63f89f",
        "simulate-mixture": "77ad0a5b27a0c6b72eedd2b9612208c2d405bd35b357b8956be8dcc894075d06",
        "simulate-uniform": "8fd189e805d7dfc9fc781792b701fb486c257bba6397c9c25dfa436b9e17e13f",
        "decompose-fresh": "ee6db4174f4da1d719fb1cfc74cb1d094505857a30ae1c9dd7c1452f61d20287",
        "decompose-file": "ee6db4174f4da1d719fb1cfc74cb1d094505857a30ae1c9dd7c1452f61d20287",
    },
    "zn130/6/50": {
        "simulate-extremal": "f268142fdc9888ffea9732c9112f5bf0d9c601a11a4cf1f1905fda657a0ec302",
        "simulate-mixture": "6e1a42a779c452bc15c5a9748e24e680c4ab4988234d79b4fd1188cfa7484ff2",
        "simulate-uniform": "06b860c4e63470910804d6dc1d9cf3ce3bac5bcc47325afd10a232d74c365e7c",
        "decompose-fresh": "108a71a1b0f2f5c9f07eab5e36087446605aa28a32a7e738b30b72f9a924d192",
        "decompose-file": "108a71a1b0f2f5c9f07eab5e36087446605aa28a32a7e738b30b72f9a924d192",
    },
    "zn500/6/50": {
        "simulate-extremal": "ae7cb3653e839da870b64fc8c15499d6be3c0276473d864fcfe3628cdf5b132c",
        "simulate-mixture": "1b00b6be99ca14f179ecff9ad17cdc8807a92da404daf8b6ed87c3124a074a86",
        "simulate-uniform": "1b4aead2fe7dd9c8ed0e828387225fc8a64d69a49a1892bb78180c8f75caa183",
        "decompose-fresh": "0be199529ef1b6f96ac698b97ecda92a2bd8f0b6c8325f977e80d74d930c56e1",
        "decompose-file": "0be199529ef1b6f96ac698b97ecda92a2bd8f0b6c8325f977e80d74d930c56e1",
    },
    "q8-case-c/6/201": {
        "simulate-extremal": "b0ddecc8c31b9b80f0b4daf58141f485adc5f41e44fdecb4a749c43c090a8dbb",
        "simulate-mixture": "988eae86cea15c2dd7b79cf32335c12e9d263c8c7b3eb4923f53c278c47dc8ef",
        "simulate-uniform": "c29bba68d69f97aa5351c0be9609234bf328046fc699f16849c304f5b30d0e4e",
        "decompose-fresh": "a9ba2645589634ae1163e600de003f588baf51057eab75d990300f8e8deee7d0",
        "decompose-file": "a9ba2645589634ae1163e600de003f588baf51057eab75d990300f8e8deee7d0",
    },
}

# ``decompose --ensemble`` of the extremal (V null) and the uniform (no U or
# phi) files of this run, which span two chunks
FILE_KINDS_RUN = ("z4-case-c-prefix", CHUNK_SIZE + 3)
GOLDEN_FILE_KINDS = {
    "decompose-extremal-file": "0791bd565158339950503aca6eef80cb1e56fdf07696db40e2ac78bf1e4dc8d4",
    "decompose-uniform-file": "81c088368fb28de9fd5148b8e29253a2af0d6ca59020701af10a389f6448edb1",
}

GOLDEN_TORUS = {
    "half-atoms": {
        "classification.json": "be27c4e96f8799ae373ff9811152471d93ed83a3e2ebf3be8e0fc19deb8f2936",
        "pi_table.csv": "29619fd02ed083a1c5a6a6b5fd4cb2663dec201c998d2f6259510aa87edcc59d",
        "pi_curves.csv": "ab5d1f381bc3991b570f70a008a752995c9923b2a990db5f5e0ace45aa38317a",
    },
    "gauss-schedule": {
        "classification.json": "f588d0c605d53876ebedfca1e3c88887140f7bc39febc2a49c31562d476c117c",
        "pi_table.csv": "dd4f8f1c01289612c7a940a45f0f813ac90e032e31754ee62c0e742847a5595c",
        "pi_curves.csv": "8941cd8243b103b6496051a2014299d325a221b246b0b15f8d9f7f89fb9cd62d",
    },
}

_GENERATED_AT = re.compile(rb'\n  "generated_at": "[^"]*",')


def _digest(path) -> str:
    return hashlib.sha256(_GENERATED_AT.sub(b"", path.read_bytes())).hexdigest()


def record_digests(tmp_path, name: str, n_paths: int, depth=None) -> dict[str, str]:
    """Digests of the five record files one spec yields: simulate x3, decompose x2."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPECS[name]))
    common = ["--input", str(spec), "--seed", "7", "--paths", str(n_paths)]
    if depth is not None:
        common += ["--depth", str(depth)]
    out = {}
    for kind in ("extremal", "mixture", "uniform"):
        target = tmp_path / f"simulate-{kind}"
        assert main(["simulate", *common, "--out", str(target), "--kind", kind]) == 0
        out[f"simulate-{kind}"] = _digest(target / "ensemble.json")
    target = tmp_path / "decompose-fresh"
    assert main(["decompose", *common, "--out", str(target)]) == 0
    out["decompose-fresh"] = _digest(target / "decomposition.json")
    target = tmp_path / "decompose-file"
    assert main(["decompose", *common, "--out", str(target),
                 "--ensemble", str(tmp_path / "simulate-mixture" / "ensemble.json")]) == 0
    out["decompose-file"] = _digest(target / "decomposition.json")
    return out


def file_kind_digests(tmp_path) -> dict[str, str]:
    """Digests of ``decompose --ensemble`` run on an extremal and on a uniform file."""
    name, n_paths = FILE_KINDS_RUN
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPECS[name]))
    common = ["--input", str(spec), "--seed", "7", "--paths", str(n_paths)]
    out = {}
    for kind in ("extremal", "uniform"):
        sim = tmp_path / f"simulate-{kind}"
        assert main(["simulate", *common, "--out", str(sim), "--kind", kind]) == 0
        target = tmp_path / f"decompose-{kind}-file"
        assert main(["decompose", *common, "--out", str(target),
                     "--ensemble", str(sim / "ensemble.json")]) == 0
        out[f"decompose-{kind}-file"] = _digest(target / "decomposition.json")
    return out


def torus_digests(tmp_path, name: str) -> dict[str, str]:
    """Digests of the three files of ``classify --torus`` on one circle spec."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(TORUS_SPECS[name]))
    out = tmp_path / "out"
    assert main(["classify", "--torus", "--input", str(spec), "--out", str(out)]) == 0
    return {f: _digest(out / f) for f in ("classification.json", "pi_table.csv", "pi_curves.csv")}


@pytest.mark.parametrize("name, n_paths", RUNS)
def test_record_files_match_pinned_digests(name, n_paths, tmp_path):
    assert record_digests(tmp_path, name, n_paths) == GOLDEN[f"{name}/{n_paths}"]


@pytest.mark.parametrize("name, n_paths, depth", DEEP_RUNS)
def test_deep_record_files_match_pinned_digests(name, n_paths, depth, tmp_path):
    assert record_digests(tmp_path, name, n_paths, depth) == GOLDEN[f"{name}/{n_paths}/{depth}"]


def test_decompose_of_extremal_and_uniform_files_matches_pinned_digests(tmp_path):
    assert file_kind_digests(tmp_path) == GOLDEN_FILE_KINDS


@pytest.mark.parametrize("name", sorted(TORUS_SPECS))
def test_torus_classify_files_match_pinned_digests(name, tmp_path):
    assert torus_digests(tmp_path, name) == GOLDEN_TORUS[name]


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    table = {}
    for name, n_paths in RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            table[f"{name}/{n_paths}"] = record_digests(Path(tmp), name, n_paths)
    for name, n_paths, depth in DEEP_RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            table[f"{name}/{n_paths}/{depth}"] = record_digests(Path(tmp), name, n_paths, depth)
    with tempfile.TemporaryDirectory() as tmp:
        file_kinds = file_kind_digests(Path(tmp))
    torus = {}
    for name in TORUS_SPECS:
        with tempfile.TemporaryDirectory() as tmp:
            torus[name] = torus_digests(Path(tmp), name)

    def show(title, rows):
        print(f"{title} = {{")
        for run, digests in rows.items():
            print(f'    "{run}": {{')
            for key, value in digests.items():
                print(f'        "{key}": "{value}",')
            print("    },")
        print("}")

    show("GOLDEN", table)
    print("GOLDEN_FILE_KINDS = {")
    for key, value in file_kinds.items():
        print(f'    "{key}": "{value}",')
    print("}")
    show("GOLDEN_TORUS", torus)
