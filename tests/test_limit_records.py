"""Pinned SHA-256 digests of the files that ``classify`` and ``limit`` write on wide groups.

The limit laws, residuals and shape distances in these files are floats, so
a digest moves with any change to the order in which a kernel sums. The
three wide specs are shaped like the benchmark's ``wide_group`` part
(orders 480 to 512, supports of 8 to 20 points); the lazy walk is a slowly
mixing one, certified at a depth of over 800. Two more wide specs put a
prefix above the tail, so that their limit laws carry rounding. Each
digest covers one file with its ``generated_at`` line removed.

To re-derive the digests after an intended output change, run
``python tests/test_limit_records.py``; it prints the table.
"""

import json

import pytest
from test_golden_records import _digest

from convlimit.cli import main
from convlimit.groups import builtin_group


def _builtin(name: str) -> dict:
    return {"kind": "builtin", "name": name}


def _on(n: int, points: dict[int, float]) -> dict:
    """Weights proportional to ``points`` on Z_n-indexed elements, zero elsewhere."""
    total = sum(points.values())
    return {"kind": "weights", "w": [points.get(g, 0.0) / total for g in range(n)]}


def _constant(group: str, mu: dict, prefix=()) -> dict:
    return {"group": _builtin(group), "prefix": list(prefix), "tail": {"kind": "constant", "mu": mu}}


def _d4xz_coset(prefix=()) -> dict:
    """Uniform on the coset g K of the central K = <r^2> x <16> of D4 x Z64."""
    name = "product:D4xZn:64"
    mul = builtin_group(name).mul
    k = [a * 64 + b for a in (0, 2) for b in range(0, 64, 16)]
    return _constant(name, _on(512, {int(x): 1.0 for x in mul[5 * 64 + 3, k]}), prefix)


SPECS = {
    # Haar on the 20 powers of ((34), 3) in S4 x Z20; element (a, b) is 20 a + b
    "s4xz-haar": _constant("product:S4xZn:20", {
        "kind": "haar_subgroup", "members": sorted({(j % 2) * 20 + 3 * j % 20 for j in range(20)})}),
    # uneven weights on the coset 7 + <50> of Z500
    "z500-coset": _constant("Zn:500", _on(500, {7 + 50 * j: 0.7 + 0.06 * j for j in range(10)})),
    "d4xz-coset": _d4xz_coset(),
    # behind a prefix the laws carry rounding: a dense ramp on Z500, three points on D4 x Z64
    "z500-coset-ramp": _constant("Zn:500", _on(500, {7 + 50 * j: 0.7 + 0.06 * j for j in range(10)}),
                                 [_on(500, {g: g % 7 + 1.0 for g in range(500)})]),
    "d4xz-coset-spiky": _d4xz_coset([_on(512, {1: 0.5, 70: 0.3, 300: 0.2})]),
    # 1/2 delta_0 + 1/4 delta_6 + 1/4 delta_34 on Z40: H = <2>, case C
    "lazy-z40": _constant("Zn:40", _on(40, {0: 0.5, 6: 0.25, 34: 0.25})),
}

FILES = {"classify": ("classification.json",),
         "limit": ("limit.json", "shape_curve.csv", "conv_residuals.csv")}

GOLDEN = {
    "s4xz-haar": {
        "classification.json": "0300db698b7f5b8d6cbaa019f22894b0fb8831b9fd954d11d46b5e772c72af96",
        "limit.json": "14980ecb9453344237be525c2ea5721ebabc942f8eb43d0fdd5fea1f29612cdd",
        "shape_curve.csv": "e9e9a0f34134790e68b08226aa510ae46f3a55d880af768c78d901f67bc5ad76",
        "conv_residuals.csv": "fb420eecae4755d1912e012e1fe9a80f8b190de1e1ab15dfa139e74b98d0f890",
    },
    "z500-coset": {
        "classification.json": "6d9764a747ef28886f0cfb439370a47acba4cd4f6bad0d9a86bf84ff5a828651",
        "limit.json": "218655d8c3053515f4aab124263281d8e72cff676e6c939f53fb6e3cd7d6c4bc",
        "shape_curve.csv": "6c23fc3338fa84f3dd98facc6a110db09fc4f560b42d7804e17705346ae70dc0",
        "conv_residuals.csv": "fb420eecae4755d1912e012e1fe9a80f8b190de1e1ab15dfa139e74b98d0f890",
    },
    "d4xz-coset": {
        "classification.json": "77bc7c00274a31d305f79d275bf71bc574937f795d7a54c2662edccbbfc0c903",
        "limit.json": "f9e3dcdd9e37827f3af1f18916bad5dc123bfdc5b3f2e75914544f60f0e57899",
        "shape_curve.csv": "dd8dcf09df2de69ea290a2bb8ffe48494dc0b967e2e2aa0e086e0b82ca9820db",
        "conv_residuals.csv": "fb420eecae4755d1912e012e1fe9a80f8b190de1e1ab15dfa139e74b98d0f890",
    },
    "z500-coset-ramp": {
        "classification.json": "6d9764a747ef28886f0cfb439370a47acba4cd4f6bad0d9a86bf84ff5a828651",
        "limit.json": "ca8e1fe71cf34840dd057381811db77d5029de9b38e105af03548c3d65e25ef3",
        "shape_curve.csv": "6c23fc3338fa84f3dd98facc6a110db09fc4f560b42d7804e17705346ae70dc0",
        "conv_residuals.csv": "fb420eecae4755d1912e012e1fe9a80f8b190de1e1ab15dfa139e74b98d0f890",
    },
    "d4xz-coset-spiky": {
        "classification.json": "77bc7c00274a31d305f79d275bf71bc574937f795d7a54c2662edccbbfc0c903",
        "limit.json": "af6ee93c69c30e35e684f76a552bf171b80745f23774f99126d47830dbec006a",
        "shape_curve.csv": "dd8dcf09df2de69ea290a2bb8ffe48494dc0b967e2e2aa0e086e0b82ca9820db",
        "conv_residuals.csv": "fb420eecae4755d1912e012e1fe9a80f8b190de1e1ab15dfa139e74b98d0f890",
    },
    "lazy-z40": {
        "classification.json": "89757975e97de66433f37f10439df5c73aa41bff6979c68575a1519b18928037",
        "limit.json": "44047727a8f518aec386f5b951890e93efb4ed9e8a4b6d0f9325a4b1cee63902",
        "shape_curve.csv": "f3c8a6fe51f72051bea9177763f7b8cf83575903629d3e4c6d93d745aec8c562",
        "conv_residuals.csv": "fb420eecae4755d1912e012e1fe9a80f8b190de1e1ab15dfa139e74b98d0f890",
    },
}


def limit_digests(tmp_path, name: str) -> dict[str, str]:
    """Digests of the files that ``classify`` and ``limit`` write on one spec."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPECS[name]))
    digests = {}
    for command, files in FILES.items():
        out = tmp_path / command
        assert main([command, "--input", str(spec), "--out", str(out)]) == 0
        digests.update({f: _digest(out / f) for f in files})
    return digests


@pytest.mark.parametrize("name", sorted(SPECS))
def test_classify_and_limit_files_match_pinned_digests(name, tmp_path):
    assert limit_digests(tmp_path, name) == GOLDEN[name]


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    print("GOLDEN = {")
    for name in SPECS:
        with tempfile.TemporaryDirectory() as tmp:
            digests = limit_digests(Path(tmp), name)
        print(f'    "{name}": {{')
        for key, value in digests.items():
            print(f'        "{key}": "{value}",')
        print("    },")
    print("}")
