import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import matchlat
from matchlat.cli import _dump_json, main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*argv):
    """Run a fresh interpreter with this test run's copy of the package."""
    src = str(Path(matchlat.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def run_module(args):
    """Run ``python -m matchlat`` with this test run's copy of the package."""
    return run_python("-m", "matchlat", *args)


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

    def test_cap_exceeded_exit_3(self, tmp_path, capsys):
        path = tmp_path / "p33.json"
        run_cli(["gen", "P(3,3)", "--out", str(path)], capsys)
        code, _, _ = run_cli(
            ["--cap-matchings", "5", "analyze", str(path), "matchings"], capsys
        )
        assert code == 3

    def test_missing_graph_file_exit_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["analyze", str(tmp_path / "absent.json"), "matchings"], capsys
        )
        assert code == 2
        assert "ParseError" in err

    @pytest.mark.parametrize("argv", [["gen", "P(1,1)"], ["analyze", None, "graph"]])
    def test_unwritable_out_exit_2(self, argv, hexagon_file, tmp_path):
        argv = [hexagon_file if a is None else a for a in argv]
        proc = run_module(argv + ["--out", str(tmp_path / "absent" / "x.json")])
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "flag, value",
        [("--cap-matchings", "-1"), ("--cap-vertices", "0"),
         ("--cap-inner-faces", "-3")],
    )
    def test_cap_below_one_is_usage_error(self, flag, value, hexagon_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main([flag, value, "analyze", hexagon_file, "matchings"])
        assert exc.value.code == 2
        assert "expected an integer >= 1" in capsys.readouterr().err

    def test_graph_dot(self, hexagon_file, capsys):
        code, stdout, _ = run_cli(
            ["analyze", hexagon_file, "graph", "--format", "dot"], capsys
        )
        assert code == 0
        assert stdout.startswith("graph")


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
