"""Pinned SHA-256 digests of the files that ``simulate``, ``decompose`` and ``classify --torus`` write.

A refactor of the sampling or decomposition kernels, or of the writers and
readers of these files, must leave these bytes alone. Each digest covers one
``ensemble.json`` or ``decomposition.json`` with its ``generated_at`` line
removed. The record files hold only integer ids and fixed strings, so
floating-point summation order cannot move a digest. The command line builds
every ensemble at the window's cut; the deeper files of ``DEEP_RUNS`` are
built with the library at their pinned depth, written as ``simulate`` writes
them, and read back by ``decompose --ensemble``. The Z500 digests at depth 50
and the Z130 uniform one equal those taken while ids were still int64, so they
guard the narrow id dtypes against overflow.

To re-derive a digest after an intended output change, run
``python tests/test_golden_records.py``; it prints the table.
"""

import hashlib
import json
import re

import pytest

from convlimit import cli
from convlimit.cli import main
from convlimit.limits import compute_limit, noise_from_spec
from convlimit.measures import haar
from convlimit.solutions import (
    CHUNK_SIZE,
    extremal_ensemble,
    general_ensemble,
    uniform_ensemble,
    window_cut,
)

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
    # shaped like the benchmark's torus-gauss: a dirac, a Gaussian, a head and a schedule
    "dirac-prefix": {"prefix": [{"kind": "dirac", "x": 0.37}, {"kind": "gauss", "m": 0.6, "sd": 0.05}],
                     "tail": {"kind": "gauss_schedule", "head": [0.03], "c": 0.1, "r": 0.5}},
    "dirac-atoms-periodic": {"prefix": [{"kind": "dirac", "x": 0.5}],
                             "tail": {"kind": "periodic", "mus": [
                                 {"kind": "dirac", "x": 0.125},
                                 {"kind": "atoms", "points": [[0.0, 0.5], [0.25, 0.5]]}]}},
}

# (spec, paths): every spec at a few paths, and one run that spans two chunks.
RUNS = [(name, 6) for name in SPECS] + [("z4-case-c-prefix", CHUNK_SIZE + 3)]
# (spec, paths, depth): every spec at a fixed depth, twice its depth_used of
# the deepening engine (so these bytes hold while the certified depth moves),
# and one window deeper than that engine's deepest_depth (164); built with the
# library, as the command line builds only at the window's cut
DEEP_RUNS = [
    ("z4-case-c-prefix", 6, 54), ("z4-case-b", 6, 50), ("s3", 6, 52), ("d4-periodic", 6, 56),
    ("q8", 6, 192), ("z6-identity-3", 6, 108), ("q8-case-c", 6, 164), ("zn130", 6, 50),
    ("zn500", 6, 50), ("q8-case-c", 6, 201),
]

GOLDEN = {
    "z4-case-c-prefix/6": {
        "simulate-extremal": "df2ebb54b7acceab822626d9a8d9a88df438723b870c2aa4f459b861f8dbe89c",
        "simulate-mixture": "a05861b52f2cb46ddc146ed8645a22698ae2518caa6436ee7046aa8f52e45349",
        "simulate-uniform": "e4c0e6be496c72c0af1285dd68a6d5032ef96101ebcf8a2e023eb5cf47f1b502",
        "decompose-fresh": "c953e6313d3907ee9212dd66ef1f97ceb5f2624b38316550020ab82921f7c829",
        "decompose-file": "c953e6313d3907ee9212dd66ef1f97ceb5f2624b38316550020ab82921f7c829",
    },
    "z4-case-b/6": {
        "simulate-extremal": "9828e4faa949546f3f7692de25dcb14cc0f2c19171f69560c971ae1e57d83a19",
        "simulate-mixture": "0e390111d7c7ab9df60fa175c6cf4270401f82212f7dd6bb5873a74858f5ae77",
        "simulate-uniform": "2f87ee4191364a53b881ac3477d4e9bcf66fb4d6f20f2aa7aa5d15dc9df1fe62",
        "decompose-fresh": "9df534799886c54950e2ada3710fbb37e1bf5f169c54c12e00655b72b5a3ece7",
        "decompose-file": "9df534799886c54950e2ada3710fbb37e1bf5f169c54c12e00655b72b5a3ece7",
    },
    "s3/6": {
        "simulate-extremal": "8be92d33217b353926daa4ce3c3659dcd3fd68d5e7ab9d8b300e04e3fe457992",
        "simulate-mixture": "33ab5d28a2a06e6407b8708ba4bc4d5a3f9773a8acd20eee638a6e2ed6c0afed",
        "simulate-uniform": "20fed3a21dce26a57171abafd3270544cf112d2d0bd70a478a88bfb7aea46962",
        "decompose-fresh": "b45257dce7f6e88d13fef8100ddfdf7509ef392fc4b8f915664b34f4df82a442",
        "decompose-file": "b45257dce7f6e88d13fef8100ddfdf7509ef392fc4b8f915664b34f4df82a442",
    },
    "d4-periodic/6": {
        "simulate-extremal": "4545e9c60ffbfee7065bd601ee3563d379e10edb7de1ee06668468dd4870aca9",
        "simulate-mixture": "6c7e3be5c8f4309c6c15098ed71a130e26b039acb900fead42046eb2e9475ced",
        "simulate-uniform": "5fcdaf0d4b2756311e4f2d246953ba63607f24934cd7ec3317b69bc0740004ab",
        "decompose-fresh": "8119fbce341798f8af6919f0a2c5e64c48c41f9bbf348247e520d94d92809c08",
        "decompose-file": "8119fbce341798f8af6919f0a2c5e64c48c41f9bbf348247e520d94d92809c08",
    },
    "q8/6": {
        "simulate-extremal": "4718425fb3b05bfef67054f8c60715a5054040b3fc1706eca79164794e635eda",
        "simulate-mixture": "4f5342be8d4dc0961e603ddad36281307393289ea4ae9d59319c63bd03448d2c",
        "simulate-uniform": "c58ba38e3b56c02f26a7587d217e8e6165b08ed693e54afe949515c54bced324",
        "decompose-fresh": "37b0d8e8a3bd84860503d4375253257251118c07249e7682e63896bfd426fdac",
        "decompose-file": "37b0d8e8a3bd84860503d4375253257251118c07249e7682e63896bfd426fdac",
    },
    "z6-identity-3/6": {
        "simulate-extremal": "65b2da382500768407ab1283aec46e8ac15d04d0681b95bc84d24471c00a732d",
        "simulate-mixture": "a86e4b3fa6db65b69032ae1723907a1861d33a9a5515baaaf0e42b3f248fe484",
        "simulate-uniform": "01019de3214fa8f0c7e63ea1887e02ea0f7a27c49a9880ee47132b29228f4f6b",
        "decompose-fresh": "6c9774c05139e6633f09ab1e9eb07dddd45ddb821e9589902441f6ef91bff1a5",
        "decompose-file": "6c9774c05139e6633f09ab1e9eb07dddd45ddb821e9589902441f6ef91bff1a5",
    },
    "q8-case-c/6": {
        "simulate-extremal": "be74ef4b6920760f96c3b75bb673b8633a6827d4c683b043e5c302a81b03d20b",
        "simulate-mixture": "b9d1de4814bf1b48aa57bbcff409894f81dc618849650d15fe87864aae0c2174",
        "simulate-uniform": "8fdd8c7ef7815ffafbf9562ea413d4ab5bf04a408531b6df7c3530d40a2115de",
        "decompose-fresh": "d96fec3249fdcff4a7db10d348486577a1f8daa880674bf12d491a5f7a68cfe9",
        "decompose-file": "d96fec3249fdcff4a7db10d348486577a1f8daa880674bf12d491a5f7a68cfe9",
    },
    "zn130/6": {
        "simulate-extremal": "0641031953ad4c9c51f15adce352f5faacf8dc8cdc620a0cb435be78f9e78956",
        "simulate-mixture": "02b1a9c0f9adad41945d35ec5a31de6fbee3a26fb4e13f8712e3e460b26b2d0d",
        "simulate-uniform": "61c5c452cc3925bf1ac6ce3e1b32f78eb33eae4ef2c203de44638bd500886a3e",
        "decompose-fresh": "e561585b2babd8abc55963023c74d82d81d88140ac932d82f8bf64d180572791",
        "decompose-file": "e561585b2babd8abc55963023c74d82d81d88140ac932d82f8bf64d180572791",
    },
    "zn500/6": {
        "simulate-extremal": "202b486f09c3a714bce6c9ff2025566656c55948b32592be5dfabd3a738bfc13",
        "simulate-mixture": "1b62aac563345f1d1bd5e0d7debfe47c1e01f6d87165b4c9bd2735c7e7dc5bb6",
        "simulate-uniform": "244aed50f359a38bd13cc35ae253bb9b0078c82145671ba3a885979c13bcb850",
        "decompose-fresh": "bec0df67dfa85d6f0dc9480490bd8f57b1cad856e6ef19cd4be77b58b886308f",
        "decompose-file": "bec0df67dfa85d6f0dc9480490bd8f57b1cad856e6ef19cd4be77b58b886308f",
    },
    "z4-case-c-prefix/4099": {
        "simulate-extremal": "9f691727b2c0dcac3c63fd458458539d2bb5288b09daf8f2674e695a08061de5",
        "simulate-mixture": "0cdff7145c146c7400308bf90951d34592f269cc05ef075f71ea7cb7d2ce0926",
        "simulate-uniform": "9a8ffa34a0c2002ba8c365d437001ed6941a504ab582595eea822979338e280f",
        "decompose-fresh": "bc2815e5f403978f57f808d026c718120696e70bbcba56ef6c0b1480a768d3c8",
        "decompose-file": "bc2815e5f403978f57f808d026c718120696e70bbcba56ef6c0b1480a768d3c8",
    },
    "z4-case-c-prefix/6/54": {
        "simulate-extremal": "72d9d0020021523a4a9c705e2b780dc177117d437806da0e8edfff9543d0d291",
        "simulate-mixture": "8caa23de5b322afe58d4c6ca3f744800c885964d766155f02766d441b7f9f40f",
        "simulate-uniform": "c8f5f60551394736891136f6da8027f43f8390e976127d6575e12dd55c94bf8f",
        "decompose-file": "01b6325b8aa19b5566774a55ec67464155394d6c00fd56d5098879d50bd0262e",
    },
    "z4-case-b/6/50": {
        "simulate-extremal": "921aaf85ce9db5b6f8ce3974d25e23ecc4f76129439ba4dbab0fef7f88da527a",
        "simulate-mixture": "77c41212554a003c43e4367757a06db9f45217b7245df2bd6af54cd29be74e5f",
        "simulate-uniform": "0fe0d270d276d5b812d1183821c53489f6f003988f9fde7ff91e242b494978af",
        "decompose-file": "541f34ccd90f66beb662d974a7098d01186fd11498aeec4cc879183ac66547d8",
    },
    "s3/6/52": {
        "simulate-extremal": "52e6e97908e60507159ff3723d4713bda9101d109021440adde1d51c5e200f49",
        "simulate-mixture": "c0d62a5a2138ecff5738e904ceb872a08326d9c22495ce7acb9a51a99c456dec",
        "simulate-uniform": "e72c58eb754d7ff7e4842ff22537b485008af3c32cb984b853e54112d7e1ef80",
        "decompose-file": "36de098e92591c896d80237e3a2a8e3e671033129d605d4bffc037a59a4b30e8",
    },
    "d4-periodic/6/56": {
        "simulate-extremal": "f7ebfc8cd9baa7566c561d976b0bacc444698ef621f33a5f296326ef38273704",
        "simulate-mixture": "9515efc04c71767b0bc195a92698c84f9b1ab61ea731b0c35e094432b9f4be64",
        "simulate-uniform": "f01f1b6264f0c2820034afb87f0dc6e6dcc95ef66f2b16a16ae3c20f6df78cf5",
        "decompose-file": "e7f8b7e804f30b383283d007e8a798a9ef0f6de9bf3b1feed6cfc0719f558cf8",
    },
    "q8/6/192": {
        "simulate-extremal": "911039d8d8de427c8a44aeee80781a7d3f614da033c1d6d2d0e1b5f570318963",
        "simulate-mixture": "f5f3bd154365e855810fd8715202c680ae8be2743b9ef309e4b91d7d6b33c152",
        "simulate-uniform": "1a679e26ec0575f3dbb599d1a0565d8afc2b14da2d86883fbee207bf9d0eea22",
        "decompose-file": "0155063c87e8b6760f2d07e596b18a00ff422ef336f4cd7c20fa3e645f25a9ae",
    },
    "z6-identity-3/6/108": {
        "simulate-extremal": "ca2b3b757b8066a4736d084366233ab391606154d830096bce83661ca2cdcbf5",
        "simulate-mixture": "d774f08623ea75be3bd5958039c90c08eeb39bec2b92d4dabe9373916bd18a32",
        "simulate-uniform": "9e5af0156920d077e2ddd5dce67b796b2d12a28aa753a687023af7540c0fb41e",
        "decompose-file": "05aeae2bf230bb4ef9e3af08e9a7cf4748b28cf72719329fb53831c37e723785",
    },
    "q8-case-c/6/164": {
        "simulate-extremal": "08f7b8b6ec67da69ce53b730bb7e9c030437a6aef6ee02b6154184757d63f89f",
        "simulate-mixture": "77ad0a5b27a0c6b72eedd2b9612208c2d405bd35b357b8956be8dcc894075d06",
        "simulate-uniform": "8fd189e805d7dfc9fc781792b701fb486c257bba6397c9c25dfa436b9e17e13f",
        "decompose-file": "ee6db4174f4da1d719fb1cfc74cb1d094505857a30ae1c9dd7c1452f61d20287",
    },
    "zn130/6/50": {
        "simulate-extremal": "f268142fdc9888ffea9732c9112f5bf0d9c601a11a4cf1f1905fda657a0ec302",
        "simulate-mixture": "6e1a42a779c452bc15c5a9748e24e680c4ab4988234d79b4fd1188cfa7484ff2",
        "simulate-uniform": "06b860c4e63470910804d6dc1d9cf3ce3bac5bcc47325afd10a232d74c365e7c",
        "decompose-file": "108a71a1b0f2f5c9f07eab5e36087446605aa28a32a7e738b30b72f9a924d192",
    },
    "zn500/6/50": {
        "simulate-extremal": "ae7cb3653e839da870b64fc8c15499d6be3c0276473d864fcfe3628cdf5b132c",
        "simulate-mixture": "1b00b6be99ca14f179ecff9ad17cdc8807a92da404daf8b6ed87c3124a074a86",
        "simulate-uniform": "1b4aead2fe7dd9c8ed0e828387225fc8a64d69a49a1892bb78180c8f75caa183",
        "decompose-file": "0be199529ef1b6f96ac698b97ecda92a2bd8f0b6c8325f977e80d74d930c56e1",
    },
    "q8-case-c/6/201": {
        "simulate-extremal": "b0ddecc8c31b9b80f0b4daf58141f485adc5f41e44fdecb4a749c43c090a8dbb",
        "simulate-mixture": "988eae86cea15c2dd7b79cf32335c12e9d263c8c7b3eb4923f53c278c47dc8ef",
        "simulate-uniform": "c29bba68d69f97aa5351c0be9609234bf328046fc699f16849c304f5b30d0e4e",
        "decompose-file": "a9ba2645589634ae1163e600de003f588baf51057eab75d990300f8e8deee7d0",
    },
}

# ``decompose --ensemble`` of the extremal (V null) and the uniform (no U or
# phi) files of this run, which span two chunks
FILE_KINDS_RUN = ("z4-case-c-prefix", CHUNK_SIZE + 3)
GOLDEN_FILE_KINDS = {
    "decompose-extremal-file": "0a1202eb4af325d88dd3d382d5adc3e81ba1f4649ce7e244d9bb37c07101126e",
    "decompose-uniform-file": "89ee101665169bf2a431f7c092438f2c4dd634a3937b6a0f69f9260424418fd6",
}

GOLDEN_TORUS = {
    "half-atoms": {
        "classification.json": "be27c4e96f8799ae373ff9811152471d93ed83a3e2ebf3be8e0fc19deb8f2936",
        "pi_table.csv": "29619fd02ed083a1c5a6a6b5fd4cb2663dec201c998d2f6259510aa87edcc59d",
        "pi_curves.csv": "b9ef64ba22479394432bf972638de33c0c6fe0dd8db81455632526f1ed119924",
    },
    "gauss-schedule": {
        "classification.json": "f588d0c605d53876ebedfca1e3c88887140f7bc39febc2a49c31562d476c117c",
        "pi_table.csv": "dd4f8f1c01289612c7a940a45f0f813ac90e032e31754ee62c0e742847a5595c",
        "pi_curves.csv": "2507e044e0c3ae868b65c53ffb3fe576d7885fee4ea9b1421ad430c3296e7655",
    },
    "dirac-prefix": {
        "classification.json": "d1074932300908aa4359bf04da47b8b62107ec3b8348f15a2f4318d491470e4f",
        "pi_table.csv": "1806f9bc1807bb90891a36763d305eb1121e882e5efd3d9b1e2003fb648e8a66",
        "pi_curves.csv": "2416b8d44de30caa61f3a1cc10a6258e4cfab1b4aed61038cbeb0aeb68382865",
    },
    "dirac-atoms-periodic": {
        "classification.json": "656170596e82a06df6fd538543248ffa47fdd9240f2117637846a8197ce9acec",
        "pi_table.csv": "759f154bf7bb9c21ccbaf3c6995b4b726316b7cc57dbdd5b8e6559b1b7621abb",
        "pi_curves.csv": "8eb0d6d203dcd2d196ce3ed0a184b08f302a7846b33b8fb29e38042d570a15a9",
    },
}

_GENERATED_AT = re.compile(rb'\n  "generated_at": "[^"]*",')


def _digest(path) -> str:
    return hashlib.sha256(_GENERATED_AT.sub(b"", path.read_bytes())).hexdigest()


def write_simulated(path, spec: dict, kind: str, depth: int, n_paths: int, seed: int) -> None:
    """Write the ensemble.json that ``simulate --kind KIND --seed SEED`` writes, built with
    the library at ``depth``, where the command line builds at the window's cut."""
    noise = noise_from_spec(spec)
    result = compute_limit(noise)
    if kind == "uniform":
        ens = uniform_ensemble(noise, depth, n_paths, seed)
    else:
        ens = extremal_ensemble(noise, result, depth, n_paths, seed)
        if kind == "mixture":
            ens = general_ensemble(ens, haar(noise.group), seed + 1)
    path.parent.mkdir()
    cli._write_json(path, cli._simulate_payload(ens, result))


def record_digests(tmp_path, name: str, n_paths: int, depth=None) -> dict[str, str]:
    """Digests of the record files one spec yields: simulate x3 and decompose of the
    mixture file, plus a fresh decompose when the files come from the command line
    (``depth`` None) and not from the library at ``depth``."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPECS[name]))
    common = ["--input", str(spec), "--seed", "7", "--paths", str(n_paths)]
    out = {}
    for kind in ("extremal", "mixture", "uniform"):
        target = tmp_path / f"simulate-{kind}"
        if depth is None:
            assert main(["simulate", *common, "--out", str(target), "--kind", kind]) == 0
        else:
            write_simulated(target / "ensemble.json", SPECS[name], kind, depth, n_paths, 7)
        out[f"simulate-{kind}"] = _digest(target / "ensemble.json")
    if depth is None:
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


@pytest.mark.parametrize("name", sorted(SPECS))
def test_command_line_files_are_the_library_files_at_the_cut(name, tmp_path):
    noise = noise_from_spec(SPECS[name])
    cut = window_cut(noise, compute_limit(noise).k_min)
    files = {k: v for k, v in GOLDEN[f"{name}/6"].items() if k != "decompose-fresh"}
    assert record_digests(tmp_path, name, 6, cut) == files


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
