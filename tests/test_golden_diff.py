import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_golden_diff():
    spec = importlib.util.spec_from_file_location("golden_diff", ROOT / "tools" / "golden_diff.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden_diff = load_golden_diff()

RECORD = ("argv simulate --out run\nexit {exit}\n--- stdout\n"
          "otto: 2 cycles, final efficiency {eff}\nresidual = {residual}\n--- stderr\n")
CYCLES = "cycle,q_in,a_shift_tv\n1,{q_in},nan\n2,0.359577761721,{shift}\n"
TRACES = "default otto traced {digest} records=2 rows={rows} repeat_from={start}\n"
REFERENCE = {"exit": 0, "eff": "0.213988", "residual": "0.00e+00", "q_in": "0.520810626207",
             "shift": "0", "digest": "ab12", "rows": 257, "start": 11}


def write_tree(root, **changes):
    values = {**REFERENCE, **changes}
    (root / "run").mkdir(parents=True)
    (root / "run.txt").write_text(RECORD.format(**values))
    (root / "run" / "cycles.csv").write_text(CYCLES.format(**values))
    (root / "traces.txt").write_text(TRACES.format(**values))
    return root


def diff(tmp_path, capsys, **changes):
    a = write_tree(tmp_path / "a")
    b = write_tree(tmp_path / "b", **changes)
    code = golden_diff.main([str(a), str(b)])
    return code, capsys.readouterr().out


def test_identical_trees_pass(tmp_path, capsys):
    code, out = diff(tmp_path, capsys)
    assert code == 0
    assert out.endswith(" 0 trace hash moves, 0 failures\n")


def test_a_12th_digit_change_passes_and_is_counted(tmp_path, capsys):
    code, out = diff(tmp_path, capsys, q_in="0.520810626208")
    assert code == 0
    assert "  run/cycles.csv: q_in 1\n" in out


def test_an_11th_digit_change_fails(tmp_path, capsys):
    code, out = diff(tmp_path, capsys, q_in="0.520810626217")
    assert code == 1
    assert "run/cycles.csv line 2 q_in: 0.520810626207 -> 0.520810626217" in out


def test_a_changed_exit_code_fails(tmp_path, capsys):
    code, out = diff(tmp_path, capsys, exit=1)
    assert code == 1
    assert "run.txt line 2: 'exit 0' -> 'exit 1'" in out


@pytest.mark.parametrize("a,b,passes", [
    ("0.213988192646", "0.213988192647", True),
    ("0.213988192646", "0.213988192648", False),
    ("0.999999999999", "1", True),
    ("1e-300", "1.00000000001e-300", True),
    ("-2.5", "2.5", False),
    ("nan", "nan", True),
    ("nan", "0", False),
    ("inf", "1e308", False),
])
def test_within_last_digit(a, b, passes):
    assert golden_diff.within_last_digit(a, b) == passes
    assert golden_diff.within_last_digit(b, a) == passes


def test_rounding_level_moves_are_listed_apart(tmp_path, capsys):
    code, out = diff(tmp_path, capsys, shift="7.04e-17", residual="8.33e-17", digest="cd34", start=13)
    assert code == 0
    assert "run/cycles.csv line 3 a_shift_tv: 0 -> 7.04e-17" in out
    assert "run.txt line 5: 0.00e+00 -> 8.33e-17" in out
    assert "default otto traced: 11 -> 13" in out
    assert "trace hashes changed, records= and rows= unchanged:\n  default otto traced\n" in out


@pytest.mark.parametrize("changes,failure", [
    ({"shift": "1e-9"}, "a_shift_tv: 0 -> 1e-9"),
    ({"eff": "0.213989"}, "run.txt line 4: 0.213988 -> 0.213989"),
    ({"start": 14}, "repeat_from 11 -> 14"),
    ({"start": None}, "repeat_from 11 -> None"),
    ({"rows": 258}, "records/rows 2/257 -> 2/258"),
], ids=["a-shift-beyond-rounding", "stdout-figure", "repeat-from-3-later", "repeat-from-unset", "rows"])
def test_moves_beyond_their_rule_fail(tmp_path, capsys, changes, failure):
    code, out = diff(tmp_path, capsys, **changes)
    assert code == 1
    assert failure in out


def test_a_missing_file_or_a_changed_line_count_fails(tmp_path, capsys):
    a = write_tree(tmp_path / "a")
    b = write_tree(tmp_path / "b")
    (b / "run" / "cycles.csv").write_text(CYCLES.format(**REFERENCE) + "3,0.1,0\n")
    (b / "traces.txt").unlink()
    assert golden_diff.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "traces.txt: only in " in out
    assert "run/cycles.csv: 3 lines -> 4 lines" in out


def test_an_exit_code_move_fails_under_its_own_heading(tmp_path, capsys):
    # a run that now fails: its record's exit line and stdout both change, and
    # only the exit line is listed, under its heading and not with the others
    a = write_tree(tmp_path / "a")
    b = write_tree(tmp_path / "b", exit=1)
    (b / "run.txt").write_text("argv simulate --out run\nexit 1\n--- stdout\n--- stderr\nerror: bad config\n")
    assert golden_diff.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "exit codes changed (failures; the rest of each record is not compared):\n" \
           "  run.txt line 2: 'exit 0' -> 'exit 1'\n" in out
    assert "\nfailures:" not in out and "lines ->" not in out
    assert out.endswith(" 0 trace hash moves, 1 failures\n")


def test_files_of_a_run_whose_exit_code_moved_are_listed_under_the_move(tmp_path, capsys):
    # a run that now succeeds writes a file the failing run did not: it is
    # listed under that run's exit-code move; a one-sided file of another run is not
    a = write_tree(tmp_path / "a", exit=1)
    b = write_tree(tmp_path / "b")
    (b / "run" / "eta_power.dat").write_text("# t_h ratio\n")
    (b / "other").mkdir()
    (b / "other" / "cycles.csv").write_text("cycle\n")
    assert golden_diff.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "exit codes changed (failures; the rest of each record is not compared):\n" \
           "  run.txt line 2: 'exit 1' -> 'exit 0'\n" \
           f"    run/eta_power.dat: only in {b}\n" in out
    assert out.split("\nfailures:\n")[1].startswith(f"  other/cycles.csv: only in {b}\n")
    assert out.endswith(" 0 trace hash moves, 2 failures\n")


@pytest.mark.parametrize("start_a,start_b", [(11, None), (None, 13)])
def test_a_repeat_from_set_in_one_tree_only_fails_under_its_own_heading(tmp_path, capsys, start_a, start_b):
    a = write_tree(tmp_path / "a", start=start_a)
    b = write_tree(tmp_path / "b", start=start_b)
    assert golden_diff.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "repeat_from set in one tree only (failures):\n" \
           f"  traces.txt default otto traced: repeat_from {start_a} -> {start_b}\n" in out
    assert "\nfailures:" not in out and "trace hashes changed" not in out
    assert out.endswith(" 0 trace hash moves, 1 failures\n")


def test_a_one_sided_move_and_another_failure_are_listed_apart(tmp_path, capsys):
    code, out = diff(tmp_path, capsys, exit=1, start=None, q_in="0.520810626217")
    assert code == 1
    assert out.index("exit codes changed") < out.index("repeat_from set in one tree only") < out.index("\nfailures:")
    assert "run/cycles.csv line 2 q_in: 0.520810626207 -> 0.520810626217" in out.split("\nfailures:")[1]
    assert out.endswith(" 0 trace hash moves, 3 failures\n")
