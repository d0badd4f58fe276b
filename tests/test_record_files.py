"""Record files written chunk by chunk and read back by the streamed reader or by json.loads.

``cli._write_json`` renders an ensemble's records ``cli.RENDER_CHUNK`` paths
at a time, and ``cli._ensemble_from_file`` parses a file laid out exactly as
written with numpy (``cli._read_canonical``), falling back to ``json.loads``
for any other JSON. These tests pin that both readers return the same
ensemble and refuse the same files, and that neither direction holds memory
in proportion to the number of paths.
"""

import json
import re
import tracemalloc

import numpy as np
import pytest
from test_golden_records import SPECS as GOLDEN_SPECS

from convlimit import cli
from convlimit.errors import InvalidSpec
from convlimit.limits import compute_limit, noise_from_spec
from convlimit.measures import haar
from convlimit.solutions import CHUNK_SIZE, extremal_ensemble, general_ensemble

# 1-digit ids (Z4), 2 and 3 digits (Z130, Z500) and a table group whose identity is 3
READER_SPECS = ("z4-case-c-prefix", "zn130", "zn500", "z6-identity-3")


def _simulate(tmp_path, name, kind, n_paths):
    """The ensemble.json that ``simulate`` writes, and the noise law of its spec."""
    spec = tmp_path / f"{name}.json"
    spec.write_text(json.dumps(GOLDEN_SPECS[name]))
    out = tmp_path / f"{name}-{kind}-{n_paths}"
    assert cli.main(["simulate", "--input", str(spec), "--out", str(out), "--seed", "7",
                     "--paths", str(n_paths), "--kind", kind]) == 0
    return out / "ensemble.json", noise_from_spec(GOLDEN_SPECS[name])


def _read_json_only(path, group, monkeypatch):
    """What ``_ensemble_from_file`` returns when the streamed reader declines the file."""
    with monkeypatch.context() as m:
        m.setattr(cli, "_read_canonical", lambda f, group: None)
        return cli._ensemble_from_file(str(path), group)


def _outcome(read):
    """The fields of the ensemble a read returns, or the message it is refused with."""
    try:
        ens = read()
    except InvalidSpec as exc:
        return "refused", str(exc)
    assert (ens.phi, ens.U, ens.V) == (None, None, None)
    return (ens.kind, ens.seed, ens.depth, ens.k_min, ens.xi.dtype, ens.xi.tobytes(),
            ens.eta.dtype, ens.eta.tobytes(), ens.xi.shape, ens.eta.shape)


def _compact(path):
    """The same file re-dumped as compact JSON."""
    out = path.with_name("compact.json")
    out.write_text(json.dumps(json.loads(path.read_text(encoding="utf-8"))), encoding="utf-8")
    return out


@pytest.mark.parametrize("n_paths", [1, CHUNK_SIZE, CHUNK_SIZE + 3])
@pytest.mark.parametrize("kind", ["uniform", "extremal", "mixture"])
@pytest.mark.parametrize("name", READER_SPECS)
def test_streamed_and_json_readers_agree(name, kind, n_paths, tmp_path, monkeypatch):
    path, noise = _simulate(tmp_path, name, kind, n_paths)
    group = noise.group
    with path.open("rb") as f:
        assert cli._read_canonical(f, group) is not None, "a written file must take the fast path"
    streamed = _outcome(lambda: cli._ensemble_from_file(str(path), group))
    assert streamed[0] != "refused", streamed
    assert streamed == _outcome(lambda: _read_json_only(path, group, monkeypatch))
    compact = _compact(path)
    with compact.open("rb") as f:
        assert cli._read_canonical(f, group) is None
    assert streamed == _outcome(lambda: cli._ensemble_from_file(str(compact), group))


@pytest.mark.parametrize("kind", ["uniform", "extremal", "mixture"])
def test_decompose_of_compact_file_is_byte_identical(kind, tmp_path):
    """``decompose --ensemble`` writes the same bytes from a written file and its compact form."""
    path, _ = _simulate(tmp_path, "z4-case-c-prefix", kind, CHUNK_SIZE + 3)
    spec = tmp_path / "z4-case-c-prefix.json"
    texts = []
    for source in (path, _compact(path)):
        out = tmp_path / f"decompose-{source.stem}"
        assert cli.main(["decompose", "--input", str(spec), "--out", str(out), "--seed", "7",
                         "--ensemble", str(source)]) == 0
        texts.append((out / "decomposition.json").read_bytes())
    texts = [re.sub(rb'"generated_at": "[^"]*"', b"", t) for t in texts]
    assert texts[0] == texts[1]


# bytes a mutation writes in place of one byte of the file, picked by position
_MUTANTS = b'0179 ,-"}]\nx'


@pytest.mark.parametrize("kind", ["extremal", "mixture"])
def test_one_mutated_byte_is_never_read_differently(kind, tmp_path, monkeypatch):
    """Whatever one byte of a written file becomes, the streamed reader declines the
    file or returns what json.loads gives; a refusal names the same error."""
    path, noise = _simulate(tmp_path, "z4-case-c-prefix", kind, 2)
    data = path.read_bytes()
    mutant = tmp_path / "mutant.json"
    streamed_reads = 0
    for pos in range(len(data)):
        for new in (_MUTANTS[pos % len(_MUTANTS)], _MUTANTS[(pos * 7 + 3) % len(_MUTANTS)]):
            if new == data[pos]:
                continue
            mutant.write_bytes(data[:pos] + bytes([new]) + data[pos + 1:])
            with mutant.open("rb") as f:
                streamed_reads += cli._read_canonical(f, noise.group) is not None
            got = _outcome(lambda: cli._ensemble_from_file(str(mutant), noise.group))
            want = _outcome(lambda: _read_json_only(mutant, noise.group, monkeypatch))
            assert got == want, (pos, bytes([new]))
    # the mutants the fast path still reads (an id or the timestamp changed) are checked too
    assert streamed_reads > 0


@pytest.mark.parametrize("extra", [
    ',\n  "k_min": -1', ',\n  "depth": 100', ',\n  "paths": []', ',\n  "kind": "uniform"',
    ',\n  "seed": 8', ' ', ',\n  "z": 1}{',
], ids=["k_min-again", "depth-again", "paths-again", "kind-again", "seed-again", "space",
        "second-object"])
def test_text_around_the_records_that_write_would_not_produce(extra, tmp_path, monkeypatch):
    """A key repeated after the records overrides the header for json.loads; the
    streamed reader declines such a file rather than read a header it did not check."""
    path, noise = _simulate(tmp_path, "z4-case-c-prefix", "mixture", 3)
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n}\n")
    path.write_text(text[:-3] + extra + "\n}\n", encoding="utf-8")
    with path.open("rb") as f:
        assert cli._read_canonical(f, noise.group) is None
    got = _outcome(lambda: cli._ensemble_from_file(str(path), noise.group))
    assert got == _outcome(lambda: _read_json_only(path, noise.group, monkeypatch))


def test_header_promising_more_paths_than_the_file_holds(tmp_path, monkeypatch):
    """An n_paths far past what the file's size can hold is declined before the streamed
    reader allocates its arrays, and refused by the json.loads reader."""
    n = cli.RENDER_CHUNK + 1
    path, noise = _simulate(tmp_path, "z4-case-c-prefix", "extremal", n)
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace(f'"n_paths": {n},', f'"n_paths": {10**12},', 1), encoding="utf-8")
    with path.open("rb") as f:
        assert cli._read_canonical(f, noise.group) is None
    got = _outcome(lambda: cli._ensemble_from_file(str(path), noise.group))
    assert got == _outcome(lambda: _read_json_only(path, noise.group, monkeypatch))
    assert got == ("refused", f"ensemble file field 'n_paths' is {10**12}, but the file holds {n} paths")


def test_record_ranges_join_to_the_whole_array():
    noise = noise_from_spec(GOLDEN_SPECS["z6-identity-3"])
    res = compute_limit(noise)
    ens = general_ensemble(extremal_ensemble(noise, res, 2 * res.depth_used, 7, 3), haar(noise.group), 4)
    whole = ens.to_records()
    assert json.loads(whole)[6]["path_id"] == 6
    for cuts in ([0, 7], [0, 1, 7], [0, 3, 4, 7], [0, 0, 6, 7, 7]):
        assert "".join(ens.to_records(a, b) for a, b in zip(cuts, cuts[1:])) == whole
    with pytest.raises(ValueError):
        ens.to_records(3, 8)


def _mixture(n_paths):
    noise = noise_from_spec(GOLDEN_SPECS["z4-case-c-prefix"])
    res = compute_limit(noise)
    ens = extremal_ensemble(noise, res, 2 * res.depth_used, n_paths, 5)
    return noise, general_ensemble(ens, haar(noise.group), 6)


def _traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_is_set_by_one_render_chunk_not_by_the_paths(tmp_path, monkeypatch):
    """Writing and reading 4 x CHUNK_SIZE paths peaks at a few render chunks' worth of text.

    The whole file is 16 render chunks. Reading also holds the block it
    reads, the arrays it returns and the U, phi and V ids it checks, one
    byte each on Z4.
    """
    noise, ens = _mixture(4 * CHUNK_SIZE)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(GOLDEN_SPECS["z4-case-c-prefix"]))
    monkeypatch.setattr(cli, "_build_ensemble_for", lambda *args: ens)
    argv = ["simulate", "--input", str(spec), "--out", str(tmp_path / "out"), "--seed", "5",
            "--kind", "mixture"]
    assert cli.main(argv) == 0  # warm every cache before tracing
    rc, write_peak = _traced_peak(lambda: cli.main(argv))
    assert rc == 0
    path = tmp_path / "out" / "ensemble.json"
    chunk_text = path.stat().st_size * cli.RENDER_CHUNK / ens.n_paths
    assert write_peak < 5 * chunk_text, (write_peak, chunk_text)

    got, read_peak = _traced_peak(lambda: cli._ensemble_from_file(str(path), noise.group))
    assert np.array_equal(got.xi, ens.xi) and np.array_equal(got.eta, ens.eta)
    kept = got.xi.nbytes + got.eta.nbytes
    assert read_peak - kept < 4 * (chunk_text + cli.READ_BLOCK), (read_peak, kept, chunk_text)
