"""Compare two output trees of tools/golden_runs.py, up to rounding.

    python tools/golden_diff.py A B

A is the reference tree (say, the parent commit's run) and B the tree to
accept.  B is accepted, exit 0, when:

* both trees hold the same files, and each file the same number of lines;
* each line keeps its text between numbers, and each run record its
  ``argv``, ``exit`` and stderr lines, byte for byte;
* each number of a CSV, ``.dat`` or SVG file, or of a run record's stdout,
  is equal or moves by at most one unit of its 12th significant digit.
  These moves are counted per file and column.

Some moves beyond the 12th digit are listed apart, and accepted:

* ``a_shift_tv`` moves: a value of a ``cycles.csv`` ``a_shift_tv`` column
  that moves by at most ``ROUNDING`` (the cycle-start shift of two states
  that differ by rounding is itself rounding);
* stdout figure moves: a figure of a run record's stdout that is at most
  ``ROUNDING`` in size on both sides (say, ``verify``'s first-law residual);
* ``repeat_from`` moves of at most ``REPEAT_SHIFT`` cycles, where both
  trees set it (``traces.txt``);
* trace hashes that changed while ``records=`` and ``rows=`` did not.

Every other difference is a failure, and the tool exits 1.  Two kinds of
failure are listed under their own headings, apart from the rest:

* exit-code moves: a run record whose ``exit`` line differs (say, a run
  that failed now succeeds).  The rest of that record is not compared, since
  its stdout and stderr follow the exit code; the files under its run's
  ``<name>/`` directory that one tree only holds are listed under the move,
  since they follow it too;
* ``repeat_from`` set in one tree only (``traces.txt``, ``None`` on the
  other side).
"""

import os
import re
import sys
from collections import Counter
from decimal import Decimal, InvalidOperation
from pathlib import Path

ROUNDING = Decimal("1e-12")
REPEAT_SHIFT = 2
DIGITS = 12
NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|(?<![A-Za-z_])[-+]?(?:nan|inf)(?![A-Za-z_])")


def _decimal(token):
    try:
        return Decimal(token)
    except InvalidOperation:
        return None


def within_last_digit(a, b):
    """True when the number texts a and b are equal or differ by at most one
    unit of the 12th significant digit of the larger."""
    if a == b:
        return True
    x, y = _decimal(a), _decimal(b)
    if x is None or y is None or not (x.is_finite() and y.is_finite()):
        return x is not None and y is not None and x.is_nan() and y.is_nan()
    top = max(abs(x), abs(y))
    return top == 0 or abs(x - y) <= Decimal(1).scaleb(top.adjusted() - (DIGITS - 1))


def _split(line):
    """(the text between the numbers of a line, its numbers)."""
    return NUMBER.split(line), NUMBER.findall(line)


class Report:
    def __init__(self):
        self.digit_moves = Counter()  # (file, column) -> count
        self.a_shift_moves, self.figure_moves, self.repeat_moves, self.hash_moves = [], [], [], []
        self.exit_moves = {}  # run record -> its exit line move, then its run's one-sided files
        self.one_sided_repeats, self.failures = [], []

    def fail(self, where, text):
        self.failures.append(f"{where}: {text}")

    def failure_count(self):
        return len(self.exit_moves) + len(self.one_sided_repeats) + len(self.failures)

    def numbers(self, where, key, a, b, rule=None):
        """Compare one number of A and B; rule(x, y) accepts a move beyond the
        last digit and returns the list it goes to, or None."""
        if a == b:
            return
        if within_last_digit(a, b):
            self.digit_moves[key] += 1
            return
        x, y = _decimal(a), _decimal(b)
        listed = rule(x, y) if rule and x is not None and y is not None else None
        if listed is None:
            self.fail(where, f"{a} -> {b}")
        else:
            listed.append(f"{where}: {a} -> {b}")

    def a_shift(self, x, y):
        return self.a_shift_moves if x.is_finite() and y.is_finite() and abs(x - y) <= ROUNDING else None

    def figure(self, x, y):
        return self.figure_moves if x.is_finite() and y.is_finite() and max(abs(x), abs(y)) <= ROUNDING else None


def _compare_table(report, name, lines_a, lines_b, sep):
    """CSV (sep ',') and .dat (sep None, a '# ' header) files, field by field."""
    header = lines_a[0].lstrip("# ").split(sep) if lines_a else []
    for number, (la, lb) in enumerate(zip(lines_a, lines_b), start=1):
        fa, fb = la.split(sep), lb.split(sep)
        if len(fa) != len(fb):
            report.fail(f"{name} line {number}", "a different number of fields")
            continue
        for i, (a, b) in enumerate(zip(fa, fb)):
            if a == b:
                continue
            column = header[i] if i < len(header) else str(i)
            where = f"{name} line {number} {column}"
            if not (NUMBER.fullmatch(a) and NUMBER.fullmatch(b)):
                report.fail(where, f"{a!r} -> {b!r}")
                continue
            rule = report.a_shift if name.endswith("cycles.csv") and column == "a_shift_tv" else None
            report.numbers(where, (name, column), a, b, rule)


def _compare_text(report, name, number, la, lb, column, rule=None):
    """One line compared token by token: its text exactly, its numbers by the rules."""
    (text_a, numbers_a), (text_b, numbers_b) = _split(la), _split(lb)
    where = f"{name} line {number}"
    if text_a != text_b:
        report.fail(where, f"{la!r} -> {lb!r}")
        return
    for a, b in zip(numbers_a, numbers_b):
        report.numbers(where, (name, column), a, b, rule)


def _compare_record(report, name, lines_a, lines_b):
    """A run record: argv, exit and stderr lines exactly, stdout by the rules."""
    in_stdout = False
    for number, (la, lb) in enumerate(zip(lines_a, lines_b), start=1):
        if la in ("--- stdout", "--- stderr"):
            in_stdout = la == "--- stdout"
        if in_stdout and la != "--- stdout":
            _compare_text(report, name, number, la, lb, "stdout", report.figure)
        elif la != lb:
            report.fail(f"{name} line {number}", f"{la!r} -> {lb!r}")


def _fields(line):
    """A traces.txt line's words, with its key=value words as a dict."""
    words = line.split()
    return words, {w.split("=", 1)[0]: w.split("=", 1)[1] for w in words if "=" in w}


def _compare_traces(report, name, lines_a, lines_b):
    for la, lb in zip(lines_a, lines_b):
        (words_a, keys_a), (words_b, keys_b) = _fields(la), _fields(lb)
        label = " ".join(words_a[:3])
        if la == lb:
            continue
        if words_a[:3] != words_b[:3] or "error" in (words_a[3:4] + words_b[3:4]) or set(keys_a) != set(keys_b):
            report.fail(f"{name} {label}", f"{la!r} -> {lb!r}")
            continue
        if any(keys_a[k] != keys_b[k] for k in ("records", "rows")):
            report.fail(f"{name} {label}", f"records/rows {keys_a['records']}/{keys_a['rows']} -> "
                                            f"{keys_b['records']}/{keys_b['rows']}")
            continue
        start_a, start_b = keys_a.get("repeat_from"), keys_b.get("repeat_from")
        if start_a != start_b:
            if start_a.isdigit() and start_b.isdigit() and abs(int(start_a) - int(start_b)) <= REPEAT_SHIFT:
                report.repeat_moves.append(f"{label}: {start_a} -> {start_b}")
            elif "None" in (start_a, start_b):
                report.one_sided_repeats.append(f"{name} {label}: repeat_from {start_a} -> {start_b}")
                continue
            else:
                report.fail(f"{name} {label}", f"repeat_from {start_a} -> {start_b}")
                continue
        if words_a[3] != words_b[3]:
            report.hash_moves.append(label)


def compare_file(report, name, text_a, text_b):
    lines_a, lines_b = text_a.splitlines(), text_b.splitlines()
    record = name.endswith(".txt") and name != "traces.txt"
    exit_a, exit_b = (lines[1] if lines[1:2] and lines[1].startswith("exit ") else None
                      for lines in (lines_a, lines_b))  # line 2 of a run record is its exit code
    if record and exit_a and exit_b and exit_a != exit_b:
        report.exit_moves[name] = [f"{name} line 2: {exit_a!r} -> {exit_b!r}"]
        return
    if len(lines_a) != len(lines_b) or text_a.endswith("\n") != text_b.endswith("\n"):
        report.fail(name, f"{len(lines_a)} lines -> {len(lines_b)} lines, or a final newline added or dropped")
        return
    if name == "traces.txt":
        _compare_traces(report, name, lines_a, lines_b)
    elif name.endswith(".csv"):
        _compare_table(report, name, lines_a, lines_b, ",")
    elif name.endswith(".dat"):
        _compare_table(report, name, lines_a, lines_b, None)
    elif name.endswith(".svg"):
        for number, (la, lb) in enumerate(zip(lines_a, lines_b), start=1):
            tag = la.lstrip("<").split(" ", 1)[0]
            _compare_text(report, name, number, la, lb, tag)
    elif record:
        _compare_record(report, name, lines_a, lines_b)
    elif text_a != text_b:
        report.fail(name, "the bytes differ")


def _files(root):
    return {str(Path(path, name).relative_to(root)) for path, _, names in os.walk(root) for name in names}


def compare_trees(a, b):
    report = Report()
    files_a, files_b = _files(a), _files(b)
    for name in sorted(files_a & files_b):
        compare_file(report, name, (a / name).read_text(encoding="utf-8"), (b / name).read_text(encoding="utf-8"))
    for name in sorted(files_a ^ files_b):
        where = f"only in {a if name in files_a else b}"
        run = Path(name).parts[0] + ".txt"  # the record of the run that wrote a file under <name>/
        if len(Path(name).parts) > 1 and run in report.exit_moves:
            report.exit_moves[run].append(f"  {name}: {where}")
        else:
            report.fail(name, where)
    return report


def print_report(report, files):
    per_file = {}
    for (name, column), count in sorted(report.digit_moves.items()):
        per_file.setdefault(name, []).append(f"{column} {count}")
    sections = [
        ("12th-digit moves (file: column count, ...)",
         [f"{name}: {', '.join(columns)}" for name, columns in per_file.items()]),
        (f"a_shift_tv moves (by at most {ROUNDING:.0e})", report.a_shift_moves),
        (f"stdout figure moves (both sides at most {ROUNDING:.0e} in size)", report.figure_moves),
        (f"repeat_from moves (at most {REPEAT_SHIFT} cycles)", report.repeat_moves),
        ("trace hashes changed, records= and rows= unchanged", report.hash_moves),
        ("exit codes changed (failures; the rest of each record is not compared)",
         [line for lines in report.exit_moves.values() for line in lines]),
        ("repeat_from set in one tree only (failures)", report.one_sided_repeats),
        ("failures", report.failures),
    ]
    for title, lines in sections:
        if lines:
            print(f"{title}:")
            print("".join(f"  {line}\n" for line in lines), end="")
    print(f"{files} files, {sum(report.digit_moves.values())} 12th-digit moves, "
          f"{len(report.a_shift_moves)} a_shift_tv moves, {len(report.figure_moves)} stdout figure moves, "
          f"{len(report.repeat_moves)} repeat_from moves, {len(report.hash_moves)} trace hash moves, "
          f"{report.failure_count()} failures")


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python tools/golden_diff.py A B", file=sys.stderr)
        return 2
    a, b = Path(argv[0]), Path(argv[1])
    report = compare_trees(a, b)
    print_report(report, len(_files(a) | _files(b)))
    return 1 if report.failure_count() else 0


if __name__ == "__main__":
    sys.exit(main())
