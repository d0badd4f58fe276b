"""Pinned SHA-256 digests of the record files that ``simulate`` and ``decompose`` write.

A refactor of the sampling or decomposition kernels must leave these bytes
alone. Each digest covers one ``ensemble.json`` or ``decomposition.json``
with its ``generated_at`` line removed. The files hold only integer ids and
fixed strings, so floating-point summation order cannot move a digest. The
Z130 and Z500 digests were taken while ids were still int64, so they guard
the narrow id dtypes against overflow.

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

# (spec, paths): every spec at a few paths, and one run that spans two chunks.
RUNS = [(name, 6) for name in SPECS] + [("z4-case-c-prefix", CHUNK_SIZE + 3)]
# (spec, paths, depth): a window deeper than the limit's deepest_depth (164),
# whose centering at -depth lies past the chain that compute_limit keeps
DEEP_RUNS = [("q8-case-c", 6, 201)]

GOLDEN = {
    "z4-case-c-prefix/6": {
        "simulate-extremal": "72d9d0020021523a4a9c705e2b780dc177117d437806da0e8edfff9543d0d291",
        "simulate-mixture": "8caa23de5b322afe58d4c6ca3f744800c885964d766155f02766d441b7f9f40f",
        "simulate-uniform": "c8f5f60551394736891136f6da8027f43f8390e976127d6575e12dd55c94bf8f",
        "decompose-fresh": "01b6325b8aa19b5566774a55ec67464155394d6c00fd56d5098879d50bd0262e",
        "decompose-file": "01b6325b8aa19b5566774a55ec67464155394d6c00fd56d5098879d50bd0262e",
    },
    "z4-case-b/6": {
        "simulate-extremal": "921aaf85ce9db5b6f8ce3974d25e23ecc4f76129439ba4dbab0fef7f88da527a",
        "simulate-mixture": "77c41212554a003c43e4367757a06db9f45217b7245df2bd6af54cd29be74e5f",
        "simulate-uniform": "0fe0d270d276d5b812d1183821c53489f6f003988f9fde7ff91e242b494978af",
        "decompose-fresh": "541f34ccd90f66beb662d974a7098d01186fd11498aeec4cc879183ac66547d8",
        "decompose-file": "541f34ccd90f66beb662d974a7098d01186fd11498aeec4cc879183ac66547d8",
    },
    "s3/6": {
        "simulate-extremal": "52e6e97908e60507159ff3723d4713bda9101d109021440adde1d51c5e200f49",
        "simulate-mixture": "c0d62a5a2138ecff5738e904ceb872a08326d9c22495ce7acb9a51a99c456dec",
        "simulate-uniform": "e72c58eb754d7ff7e4842ff22537b485008af3c32cb984b853e54112d7e1ef80",
        "decompose-fresh": "36de098e92591c896d80237e3a2a8e3e671033129d605d4bffc037a59a4b30e8",
        "decompose-file": "36de098e92591c896d80237e3a2a8e3e671033129d605d4bffc037a59a4b30e8",
    },
    "d4-periodic/6": {
        "simulate-extremal": "f7ebfc8cd9baa7566c561d976b0bacc444698ef621f33a5f296326ef38273704",
        "simulate-mixture": "9515efc04c71767b0bc195a92698c84f9b1ab61ea731b0c35e094432b9f4be64",
        "simulate-uniform": "f01f1b6264f0c2820034afb87f0dc6e6dcc95ef66f2b16a16ae3c20f6df78cf5",
        "decompose-fresh": "e7f8b7e804f30b383283d007e8a798a9ef0f6de9bf3b1feed6cfc0719f558cf8",
        "decompose-file": "e7f8b7e804f30b383283d007e8a798a9ef0f6de9bf3b1feed6cfc0719f558cf8",
    },
    "q8/6": {
        "simulate-extremal": "911039d8d8de427c8a44aeee80781a7d3f614da033c1d6d2d0e1b5f570318963",
        "simulate-mixture": "f5f3bd154365e855810fd8715202c680ae8be2743b9ef309e4b91d7d6b33c152",
        "simulate-uniform": "1a679e26ec0575f3dbb599d1a0565d8afc2b14da2d86883fbee207bf9d0eea22",
        "decompose-fresh": "0155063c87e8b6760f2d07e596b18a00ff422ef336f4cd7c20fa3e645f25a9ae",
        "decompose-file": "0155063c87e8b6760f2d07e596b18a00ff422ef336f4cd7c20fa3e645f25a9ae",
    },
    "z6-identity-3/6": {
        "simulate-extremal": "ca2b3b757b8066a4736d084366233ab391606154d830096bce83661ca2cdcbf5",
        "simulate-mixture": "d774f08623ea75be3bd5958039c90c08eeb39bec2b92d4dabe9373916bd18a32",
        "simulate-uniform": "9e5af0156920d077e2ddd5dce67b796b2d12a28aa753a687023af7540c0fb41e",
        "decompose-fresh": "05aeae2bf230bb4ef9e3af08e9a7cf4748b28cf72719329fb53831c37e723785",
        "decompose-file": "05aeae2bf230bb4ef9e3af08e9a7cf4748b28cf72719329fb53831c37e723785",
    },
    "q8-case-c/6": {
        "simulate-extremal": "08f7b8b6ec67da69ce53b730bb7e9c030437a6aef6ee02b6154184757d63f89f",
        "simulate-mixture": "77ad0a5b27a0c6b72eedd2b9612208c2d405bd35b357b8956be8dcc894075d06",
        "simulate-uniform": "8fd189e805d7dfc9fc781792b701fb486c257bba6397c9c25dfa436b9e17e13f",
        "decompose-fresh": "ee6db4174f4da1d719fb1cfc74cb1d094505857a30ae1c9dd7c1452f61d20287",
        "decompose-file": "ee6db4174f4da1d719fb1cfc74cb1d094505857a30ae1c9dd7c1452f61d20287",
    },
    "zn130/6": {
        "simulate-extremal": "47f6fc89a65df4ca03e2556a637e5a95fdacdaa30c7b380e4b1bd53d8399956b",
        "simulate-mixture": "94e536fcb6a504fc760b46a1e9f69a4cbc67dc5c20eea4d355cee5ec6a245c16",
        "simulate-uniform": "06b860c4e63470910804d6dc1d9cf3ce3bac5bcc47325afd10a232d74c365e7c",
        "decompose-fresh": "3af550acf42e9c00121bf3efa9581d15e883aa551e788de06cfb0bdcf1af506a",
        "decompose-file": "3af550acf42e9c00121bf3efa9581d15e883aa551e788de06cfb0bdcf1af506a",
    },
    "zn500/6": {
        "simulate-extremal": "ae7cb3653e839da870b64fc8c15499d6be3c0276473d864fcfe3628cdf5b132c",
        "simulate-mixture": "1b00b6be99ca14f179ecff9ad17cdc8807a92da404daf8b6ed87c3124a074a86",
        "simulate-uniform": "1b4aead2fe7dd9c8ed0e828387225fc8a64d69a49a1892bb78180c8f75caa183",
        "decompose-fresh": "0be199529ef1b6f96ac698b97ecda92a2bd8f0b6c8325f977e80d74d930c56e1",
        "decompose-file": "0be199529ef1b6f96ac698b97ecda92a2bd8f0b6c8325f977e80d74d930c56e1",
    },
    "z4-case-c-prefix/4099": {
        "simulate-extremal": "a57fec8252247f7231f68b6210be2ed13ef9cb0a23353b649f0d3d57671e9281",
        "simulate-mixture": "9e5f8a865b04ea16be0fefb84f614b01222d31a590efa4588211c1bb121204ac",
        "simulate-uniform": "b5eba0613828c31158144d84e1c8be4d256442e69745c6936312065ff9c2e45f",
        "decompose-fresh": "b35dd8fc320841fcaa927922ca1e6ed5e0d28f22db6c739e704164cfeeef479f",
        "decompose-file": "b35dd8fc320841fcaa927922ca1e6ed5e0d28f22db6c739e704164cfeeef479f",
    },
    "q8-case-c/6/201": {
        "simulate-extremal": "b0ddecc8c31b9b80f0b4daf58141f485adc5f41e44fdecb4a749c43c090a8dbb",
        "simulate-mixture": "988eae86cea15c2dd7b79cf32335c12e9d263c8c7b3eb4923f53c278c47dc8ef",
        "simulate-uniform": "c29bba68d69f97aa5351c0be9609234bf328046fc699f16849c304f5b30d0e4e",
        "decompose-fresh": "a9ba2645589634ae1163e600de003f588baf51057eab75d990300f8e8deee7d0",
        "decompose-file": "a9ba2645589634ae1163e600de003f588baf51057eab75d990300f8e8deee7d0",
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


@pytest.mark.parametrize("name, n_paths", RUNS)
def test_record_files_match_pinned_digests(name, n_paths, tmp_path):
    assert record_digests(tmp_path, name, n_paths) == GOLDEN[f"{name}/{n_paths}"]


@pytest.mark.parametrize("name, n_paths, depth", DEEP_RUNS)
def test_deep_record_files_match_pinned_digests(name, n_paths, depth, tmp_path):
    assert record_digests(tmp_path, name, n_paths, depth) == GOLDEN[f"{name}/{n_paths}/{depth}"]


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
    print("GOLDEN = {")
    for run, digests in table.items():
        print(f'    "{run}": {{')
        for key, value in digests.items():
            print(f'        "{key}": "{value}",')
        print("    },")
    print("}")
