import json
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

import matchlat
from matchlat import cli
from matchlat.cli import _dump_json, main
from matchlat.errors import Disconnected

from conftest import (
    edited_hosts,
    nested_squares,
    no_matching_description,
    pendant_description,
    without_edges,
)

EDITED_HOSTS = edited_hosts()
ANALYZE_TARGETS = (
    "matchings", "zdig", "lattice", "decompose", "faceposet", "dual", "graph",
)


def p22_description():
    """A fresh P(2,2) description, as ``gen`` writes it."""
    return json.loads(json.dumps(matchlat.parse_spec("P(2,2)").graph.to_json()))


WRONG_TYPES = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3), st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
)


def _slots(doc):
    """Every (container, key) place in a JSON document, outermost first."""
    out = []
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        out.append((doc, key))
        if isinstance(value, (dict, list)):
            out.extend(_slots(value))
    return out


def edit_description(desc, data):
    """Apply one drawn edit to a graph description, in place."""
    kind = data.draw(st.sampled_from(
        ["wrong type", "id out of range", "swap rotation", "drop rotation", "drop key"]
    ))
    rotation = desc.get("rotation")
    if not isinstance(rotation, dict):
        rotation = {}
    lists = [r for r in rotation.values() if isinstance(r, list) and r]
    if kind == "wrong type":
        owner, key = data.draw(st.sampled_from(_slots(desc)))
        owner[key] = data.draw(WRONG_TYPES)
    elif kind == "id out of range":
        ints = [(o, k) for o, k in _slots(desc) if type(o[k]) is int]
        if ints:
            owner, key = data.draw(st.sampled_from(ints))
            owner[key] = data.draw(st.one_of(
                st.integers(max_value=-1), st.integers(min_value=64)
            ))
    elif kind == "swap rotation" and lists:
        a, b = data.draw(st.sampled_from(lists)), data.draw(st.sampled_from(lists))
        i = data.draw(st.integers(0, len(a) - 1))
        j = data.draw(st.integers(0, len(b) - 1))
        a[i], b[j] = b[j], a[i]
    elif kind == "drop rotation" and lists:
        if data.draw(st.booleans()):
            del rotation[data.draw(st.sampled_from(sorted(rotation)))]
        else:
            entries = data.draw(st.sampled_from(lists))
            del entries[data.draw(st.integers(0, len(entries) - 1))]
    elif kind == "drop key":
        keyed = [(o, k) for o, k in _slots(desc) if isinstance(o, dict)]
        if keyed:
            owner, key = data.draw(st.sampled_from(keyed))
            owner.pop(key, None)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*argv, stdout=subprocess.PIPE):
    """Run a fresh interpreter with this test run's copy of the package."""
    src = str(Path(matchlat.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def run_module(args, stdout=subprocess.PIPE):
    """Run ``python -m matchlat`` with this test run's copy of the package."""
    return run_python("-m", "matchlat", *args, stdout=stdout)


class TestGenerate:
    def test_p22_file(self, tmp_path, capsys):
        out = tmp_path / "p22.json"
        code, _, _ = run_cli(["gen", "P(2,2)", "--out", str(out)], capsys)
        assert code == 0
        data = json.loads(out.read_text())
        assert len(data["vertices"]) == 16

    def test_t2(self, capsys):
        code, stdout, _ = run_cli(["gen", "T(2)"], capsys)
        assert code == 0
        assert len(json.loads(stdout)["vertices"]) == 14

    def test_tree_spec(self, capsys):
        code, stdout, _ = run_cli(["gen", "tree:1>2,1>3"], capsys)
        assert code == 0
        json.loads(stdout)

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run_cli(["gen", "Q(9)"], capsys)
        assert code == 2
        assert "error" in err

    def test_leaked_exception_exit_4(self):
        # an exception that is no MatchlatError is an internal error
        proc = run_python(
            "-c",
            "import sys\n"
            "from matchlat import cli\n"
            "def boom(*args):\n"
            "    raise RuntimeError('leaked')\n"
            "cli.parse_spec = boom\n"
            "sys.exit(cli.main(['gen', 'P(1,1)']))\n",
        )
        assert proc.returncode == 4
        assert "RuntimeError" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "spec, faces",
        [("P(1000000000000,1)", 10**12), ("T(1000000000000)", 10**12 * (10**12 + 1) // 2)],
    )
    def test_huge_spec_exits_3_before_building_its_rows(self, spec, faces, capsys):
        start = time.perf_counter()
        code, _, err = run_cli(["gen", spec], capsys)
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (3, f"error: {faces} inner faces exceeds cap 20\n")

    @pytest.mark.parametrize("spec", ["P(1000000000000,0)", "P(0,1000000000000)", "T(-5)"])
    def test_non_positive_size_exits_2(self, spec, capsys):
        code, _, err = run_cli(["gen", spec], capsys)
        assert code == 2
        assert err.startswith("error: InvalidRowLengths: ")

    @pytest.mark.parametrize("spec", [
        "P(2_0,1)", "P(\uff12,2)", "P(+2,2)", "P( 2,2)", "T(\u0663)", "L(3,_2)",
        "tree:1>2_0", "tree:+7",
    ])
    def test_spec_numbers_are_plain_integers(self, spec, capsys):
        """Only ``-?[0-9]+`` is a number: ``int`` would read each of these
        as some size, from a digit separator, a sign, a space or a
        non-ASCII digit."""
        code, stdout, err = run_cli(["gen", spec], capsys)
        assert (code, stdout) == (2, "")
        assert err.count("error:") == 1
        assert err.startswith(f"error: ParseError: cannot parse generator spec {spec!r}: ")

    def test_deterministic_bytes(self, capsys):
        _, out1, _ = run_cli(["gen", "L(3,2,1)"], capsys)
        _, out2, _ = run_cli(["gen", "L(3,2,1)"], capsys)
        assert out1 == out2


class TestAnalyze:
    @pytest.fixture
    def hexagon_file(self, tmp_path, capsys):
        path = tmp_path / "hexagon.json"
        run_cli(["gen", "L(1)", "--out", str(path)], capsys)
        return str(path)

    def test_matchings_count(self, hexagon_file, capsys):
        code, stdout, _ = run_cli(["analyze", hexagon_file, "matchings"], capsys)
        assert code == 0
        data = json.loads(stdout)
        assert data["count"] == 2
        assert len(data["matchings"]) == 2

    def test_decompose_irreducible(self, tmp_path, capsys):
        path = tmp_path / "p22.json"
        run_cli(["gen", "P(2,2)", "--out", str(path)], capsys)
        code, stdout, _ = run_cli(["analyze", str(path), "decompose"], capsys)
        assert code == 0
        data = json.loads(stdout)
        assert data["lattice_size"] == 6
        assert data["factors"] == [6]
        assert data["central_elements"] == []

    def test_zdig_dot(self, hexagon_file, capsys):
        code, stdout, _ = run_cli(
            ["analyze", hexagon_file, "zdig", "--format", "dot"], capsys
        )
        assert code == 0
        assert stdout.startswith("digraph")

    def test_lattice_json(self, hexagon_file, capsys):
        code, stdout, _ = run_cli(["analyze", hexagon_file, "lattice"], capsys)
        assert code == 0
        data = json.loads(stdout)
        assert len(data["elements"]) == 2

    def test_faceposet_on_outerplane(self, tmp_path, capsys):
        path = tmp_path / "t2.json"
        run_cli(["gen", "T(2)", "--out", str(path)], capsys)
        code, stdout, _ = run_cli(["analyze", str(path), "faceposet"], capsys)
        assert code == 0
        assert len(json.loads(stdout)["elements"]) == 3

    def test_faceposet_rejects_pyrene(self, tmp_path, capsys):
        path = tmp_path / "p22.json"
        run_cli(["gen", "P(2,2)", "--out", str(path)], capsys)
        code, _, err = run_cli(["analyze", str(path), "faceposet"], capsys)
        assert code == 2
        assert "NotOuterplane" in err

    def test_decompose_linked_factors(self, tmp_path, capsys):
        import json as _json

        from matchlat import (
            TruncatedParallelogramSpec,
            link_components,
            parallelogram_spec,
            truncated_parallelogram,
        )

        hexagon = truncated_parallelogram(TruncatedParallelogramSpec((1,))).graph
        naphthalene = truncated_parallelogram(parallelogram_spec(2, 1)).graph
        linked = link_components([hexagon, naphthalene])
        path = tmp_path / "linked.json"
        path.write_text(_json.dumps(linked.graph.to_json()))
        code, stdout, _ = run_cli(["analyze", str(path), "decompose"], capsys)
        assert code == 0
        data = json.loads(stdout)
        assert sorted(data["factors"]) == [2, 3]
        assert len(data["central_elements"]) == 2

    @pytest.mark.parametrize("host, error", [
        ("pendant", "NotALattice: elements Matching(edge_ids=(0, 4, 6, 7)), "
                    "Matching(edge_ids=(1, 3, 5, 7)) have no meet"),
        ("C6+pendant+C6", "NotALattice: elements Matching(edge_ids=(0, 3, 5, 6, 10, "
                          "12, 13, 15, 18, 20)), Matching(edge_ids=(0, 3, 5, 7, 9, 11, "
                          "13, 15, 18, 20)) have no meet"),
        ("nested squares", "NotALattice: elements Matching(edge_ids=(0, 2, 4, 6)), "
                           "Matching(edge_ids=(1, 3, 4, 6)) have no meet"),
    ])
    def test_decompose_refuses_uncertified_non_lattices(self, host, error, tmp_path,
                                                        capsys):
        # a face that is no simple cycle, or a component face that is no
        # face of the host: the lattice route runs and refuses as before
        pendant = matchlat.load_graph(pendant_description())
        C6 = matchlat.parse_spec("L(1)").graph
        G = {"pendant": pendant,
             "C6+pendant+C6": matchlat.link_components([C6, pendant, C6]).graph,
             "nested squares": nested_squares()}[host]
        path = tmp_path / "host.json"
        path.write_text(json.dumps(G.to_json()))
        for fmt in ("json", "text"):
            code, out, err = run_cli(["analyze", str(path), "decompose",
                                      "--format", fmt], capsys)
            assert (code, out, err) == (2, "", f"error: {error}\n")

    def test_decompose_without_a_perfect_matching(self, tmp_path, capsys):
        path = tmp_path / "host.json"
        path.write_text(json.dumps(no_matching_description()))
        code, out, err = run_cli(["analyze", str(path), "decompose"], capsys)
        assert (code, out, err) == (
            2, "", "error: NoPerfectMatching: graph has no perfect matching\n"
        )

    @pytest.mark.parametrize("cap, error", [
        (["--cap-matchings", "5"], "more than 5 matchings"),
        (["--cap-vertices", "15"], "16 vertices exceeds cap 15"),
    ])
    def test_decompose_over_a_cap_exits_3(self, cap, error, tmp_path, capsys):
        path = tmp_path / "p22.json"
        run_cli(["gen", "P(2,2)", "--out", str(path)], capsys)
        for fmt in ("json", "text"):
            code, out, err = run_cli([*cap, "analyze", str(path), "decompose",
                                      "--format", fmt], capsys)
            assert (code, out, err) == (3, "", f"error: {error}\n")

    def test_cap_exceeded_exit_3(self, tmp_path, capsys):
        path = tmp_path / "p33.json"
        run_cli(["gen", "P(3,3)", "--out", str(path)], capsys)
        code, _, _ = run_cli(
            ["--cap-matchings", "5", "analyze", str(path), "matchings"], capsys
        )
        assert code == 3

    def test_cap_is_decided_before_any_search(self, tmp_path, capsys, monkeypatch):
        # the Kasteleyn count refuses P(3,3)'s 20 matchings; the branch
        # search never starts
        from matchlat import matching

        path = tmp_path / "p33.json"
        run_cli(["gen", "P(3,3)", "--out", str(path)], capsys)

        def refuse(n, edges):
            raise AssertionError("branch search ran")

        monkeypatch.setattr(matching, "_search_tree", refuse)
        code, _, err = run_cli(
            ["--cap-matchings", "5", "analyze", str(path), "matchings"], capsys
        )
        assert (code, err) == (3, "error: more than 5 matchings\n")

    def test_missing_graph_file_exit_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["analyze", str(tmp_path / "absent.json"), "matchings"], capsys
        )
        assert code == 2
        assert "ParseError" in err

    @pytest.mark.parametrize(
        "text",
        ["[" * 200_000, '{"vertices": ' + "1" * 5000 + "}"],
        ids=["nested-past-the-decoder-depth", "integer-past-the-digit-limit"],
    )
    def test_undecodable_graph_file_exit_2(self, text, tmp_path, capsys):
        path = tmp_path / "graph.json"
        path.write_text(text)
        code, _, err = run_cli(["analyze", str(path), "graph"], capsys)
        assert code == 2
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [["gen", "P(1,1)"], ["analyze", None, "graph"]])
    def test_unwritable_out_exit_2(self, argv, hexagon_file, tmp_path):
        argv = [hexagon_file if a is None else a for a in argv]
        proc = run_module(argv + ["--out", str(tmp_path / "absent" / "x.json")])
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("fails", ["write", "flush"])
    @pytest.mark.parametrize("argv", [["gen", "P(2,2)"], ["verify", "core"]])
    def test_failed_stdout_write_exit_2(self, argv, fails, tmp_path, capsys):
        class FullStdout:
            def __init__(self, fd):
                self.fd = fd

            def write(self, text):
                if fails == "write":
                    raise OSError(28, "No space left on device")

            def flush(self):
                if fails == "flush":
                    raise OSError(28, "No space left on device")

            def fileno(self):
                return self.fd

        with open(tmp_path / "stdout", "w") as fh:
            with patch.object(sys, "stdout", FullStdout(fh.fileno())):
                code = main(argv)
            now = os.fstat(fh.fileno())
        err = capsys.readouterr().err
        assert code == 2
        assert err == (
            "error: ParseError: cannot write standard output: "
            "[Errno 28] No space left on device\n"
        )
        # what is still buffered goes to the null device at exit
        null = os.stat(os.devnull)
        assert (now.st_dev, now.st_ino) == (null.st_dev, null.st_ino)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("argv", [["gen", "P(2,2)"], ["verify", "core"]])
    def test_stdout_on_full_device_exit_2(self, argv):
        # a buffered real process: the small output fails only at flush,
        # and the interpreter flushes again at exit
        with open("/dev/full", "w") as full, patch.dict(os.environ):
            os.environ.pop("PYTHONUNBUFFERED", None)
            proc = run_module(argv, stdout=full)
        assert proc.returncode == 2
        assert proc.stderr == (
            "error: ParseError: cannot write standard output: "
            "[Errno 28] No space left on device\n"
        )

    @pytest.mark.parametrize(
        "flag, value",
        [("--cap-matchings", "-1"), ("--cap-vertices", "0"),
         ("--cap-inner-faces", "-3"), ("--cap-vertices", "abc"),
         # int() would read these as 1000, 10, 64 and 5
         ("--cap-matchings", "1_000"), ("--cap-matchings", "\u0661\u0660"),
         ("--cap-vertices", "+64"), ("--cap-inner-faces", " 5")],
    )
    def test_cap_below_one_is_usage_error(self, flag, value, hexagon_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main([flag, value, "analyze", hexagon_file, "matchings"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "expected an integer >= 1" in err

    def test_graph_dot(self, hexagon_file, capsys):
        code, stdout, _ = run_cli(
            ["analyze", hexagon_file, "graph", "--format", "dot"], capsys
        )
        assert code == 0
        assert stdout.startswith("graph")

    @given(st.sampled_from(range(len(EDITED_HOSTS))), st.data())
    @settings(max_examples=100, deadline=None)
    def test_edited_hosts_exit_0_2_or_3(self, k, data):
        """A host with 1-3 edges deleted is answered, refused as input or
        capped by every target in every format: never a failed check (1)
        or an internal error (4)."""
        G = EDITED_HOSTS[k]
        dropped = data.draw(st.sets(st.integers(0, G.n_edges - 1), min_size=1, max_size=3))
        try:
            H = without_edges(G, dropped)
        except (Disconnected, StopIteration):
            return
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "host.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump(H.to_json(), f)
            for target in ("matchings", "zdig", "lattice", "decompose", "faceposet",
                           "dual", "graph"):
                for fmt in ("json", "dot", "text"):
                    argv = ["analyze", path, target, "--format", fmt, "--out", os.devnull]
                    assert main(argv) in (0, 2, 3), argv

    @given(st.integers(1, 3), st.data())
    @settings(max_examples=100, deadline=None)
    def test_malformed_descriptions_exit_0_or_2(self, n_edits, data):
        """A P(2,2) description with 1-3 edits (a value of the wrong type,
        an id out of range, rotation entries swapped or dropped, a key
        dropped) is answered or refused as input by every target: never
        a failed check (1), a cap (3) or an internal error (4)."""
        desc = p22_description()
        for _ in range(n_edits):
            edit_description(desc, data)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "host.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump(desc, f)
            for target in ANALYZE_TARGETS:
                argv = ["analyze", path, target, "--out", os.devnull]
                assert main(argv) in (0, 2), (desc, argv)


class TestVerify:
    def test_core_passes(self, capsys):
        code, stdout, _ = run_cli(["verify", "core"], capsys)
        assert code == 0
        assert "failed" in stdout
        assert "0 failed" in stdout

    def test_core_passes_without_numpy(self):
        # a None entry in sys.modules makes any "import numpy" fail
        proc = run_python(
            "-c",
            "import sys; sys.modules['numpy'] = None; import matchlat.cli; "
            "sys.exit(matchlat.cli.main(['verify', 'core']))",
        )
        assert proc.returncode == 0, proc.stderr
        assert "0 failed" in proc.stdout

    @pytest.mark.parametrize("argv", [
        ["--cap-matchings", "3", "verify", "core"],
        ["--cap-inner-faces", "3", "verify", "parallelogram"],
        ["--cap-matchings", "5", "verify", "outerplane"],
        ["--cap-matchings", "3", "verify", "decomposition"],
    ])
    def test_cap_binding_inside_a_check_exits_3(self, argv, capsys):
        code, stdout, err = run_cli(argv, capsys)
        assert code == 3
        assert stdout == ""
        assert err.startswith("error: ")

    def test_json_report(self, capsys):
        code, stdout, _ = run_cli(
            ["verify", "decomposition", "--format", "json"], capsys
        )
        assert code == 0
        data = json.loads(stdout)
        assert data["totals"]["fail"] == 0


def test_console_entry_point():
    proc = run_module(["gen", "T(1)"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["outer_face"] is not None


# JSON values as the standard library reads them, nested: text with quotes,
# backslashes, non-ASCII and control characters, bignums and negatives
json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**80), max_value=2**80)
    | st.floats()
    | st.text(alphabet=st.sampled_from('ab"\\\n\t\x00\x1f\x7fé€😀'))
    | st.text()
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=25,
)
# the rows fast path's shape, with rows that must leave it: empty rows,
# bools and nested lists among the ints
row_ints = st.integers() | st.integers(min_value=-(2**70), max_value=2**70)
int_rows = st.lists(
    st.lists(row_ints, min_size=1, max_size=4)
    | st.lists(row_ints, min_size=1, max_size=4).map(tuple)
    | st.lists(row_ints | st.booleans() | st.lists(row_ints, max_size=2), max_size=3),
    max_size=5,
)


def reference_json(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


class TestDumpJson:
    @given(json_values)
    @settings(max_examples=200, deadline=None)
    def test_matches_indented_json_dumps(self, value):
        assert _dump_json(value) == reference_json(value)

    @given(int_rows)
    @settings(max_examples=200, deadline=None)
    def test_int_rows_match_indented_json_dumps(self, rows):
        for value in (rows, {"rows": rows, "n": [rows]}):
            assert _dump_json(value) == reference_json(value)

    @pytest.mark.parametrize("piece", [1, 2])
    @given(rows=int_rows)
    @settings(max_examples=100, deadline=None)
    def test_int_rows_across_pieces(self, piece, rows):
        with patch.object(cli, "ROWS_PER_PIECE", piece):
            for value in (rows, {"rows": rows, "n": [rows]}):
                assert _dump_json(value) == reference_json(value)

    def test_rows_past_two_pieces(self):
        # 2·N + 1 rows: two full pieces and a one-row tail, with lengths
        # 1 to 3 and lists and tuples mixed
        rows = [
            (list if i % 2 else tuple)(range(-i, -i + 1 + i % 3))
            for i in range(2 * cli.ROWS_PER_PIECE + 1)
        ]
        for value in (rows, {"rows": rows, "n": [rows]}):
            assert _dump_json(value) == reference_json(value)

    @pytest.mark.parametrize("piece", [1, 2])
    @given(rows=st.lists(st.lists(row_ints, min_size=3, max_size=3), max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_int_table_is_its_rows(self, piece, rows):
        # the flat table of width 3 encodes as the list of its rows
        table = cli.IntTable(tuple(x for row in rows for x in row), 3)
        with patch.object(cli, "ROWS_PER_PIECE", piece):
            for value, same in (
                (table, rows),
                ({"t": table, "n": [table]}, {"t": rows, "n": [rows]}),
            ):
                assert _dump_json(value) == reference_json(same)

    # widths 8 and 64 fill whole bytes, 61 (fence-20) leaves 3 pad bits
    # and 80 is the 16-leaf in-star's; from 101 edges on, ids have 3 digits
    @pytest.mark.parametrize("piece", [1, 2, 4096])
    @pytest.mark.parametrize("n_edges", sorted({*range(1, 131, 7), 8, 61, 64, 80, 130}))
    def test_mask_rows_match_indented_json_dumps(self, piece, n_edges):
        rng = random.Random(n_edges)
        masks = [0, 1, (1 << n_edges) - 1, 1 << n_edges - 1]
        masks += [rng.getrandbits(n_edges) for _ in range(6)]
        # canonical masks: edge e at bit n_edges - 1 - e
        rows = [[e for e in range(n_edges) if m >> n_edges - 1 - e & 1] for m in masks]
        table = cli.MaskRows(masks, n_edges)
        with patch.object(cli, "ROWS_PER_PIECE", piece):
            for value, same in (
                (table, rows),
                ({"m": table, "n": [table]}, {"m": rows, "n": [rows]}),
            ):
                assert _dump_json(value) == reference_json(same)

    def test_empty_mask_rows(self):
        assert _dump_json(cli.MaskRows((), 61)) == "[]\n"

    def test_empty_int_table(self, tmp_path, capsys):
        assert _dump_json(cli.IntTable((), 3)) == "[]\n"
        # the one-edge host has one matching and no flip arcs
        path = tmp_path / "k2.json"
        path.write_text(json.dumps({
            "vertices": [{"id": 0, "color": "white"}, {"id": 1, "color": "black"}],
            "edges": [[0, 1]],
            "rotation": {"0": [0], "1": [0]},
        }))
        code, stdout, _ = run_cli(["analyze", str(path), "zdig"], capsys)
        assert code == 0
        assert stdout == reference_json({"arcs": [], "matchings": [[0]]})
        assert '"arcs": [],' in stdout
