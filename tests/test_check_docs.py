"""``tools/check_docs.py``: documented service commands must match the CLI,
and the trajectory table must match the committed baseline."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "check_docs.py"
_spec = importlib.util.spec_from_file_location("check_docs", TOOL)
check_docs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_docs)

DOC = """\
Intro.

```sh
python -m repro.service build --dist IND --n 400 --d 3 --out idx.rprs
printf '{"focal": 5}\\n' | \\
    python -m repro.service serve --snapshot idx.rprs \\
    --wave-window 0.002   # a flag serve no longer has
python -m repro.service serve --listen :0 | grep --count ready
python -m repro.service rebuild --snapshot idx.rprs
```

```python
x = "python -m repro.service serve --slots 2"  # not a sh block
```
"""


def test_commands_are_parsed_with_continuations():
    commands = check_docs.service_commands(DOC)
    assert commands == [
        (4, "build", ["--dist", "--n", "--d", "--out"]),
        (5, "serve", ["--snapshot", "--wave-window"]),
        (8, "serve", ["--listen"]),  # the pipe ends serve's arguments
        (9, "rebuild", ["--snapshot"]),
    ]


def test_deleted_flags_and_unknown_verbs_fail(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text(DOC)
    failures, count = check_docs.check_service_flags(doc)
    assert count == 4
    assert len(failures) == 2
    assert "doc.md:5: `repro.service serve` has no --wave-window flag" in failures[0]
    assert "unknown repro.service verb 'rebuild'" in failures[1]


def test_verb_help_lists_the_live_flags():
    serve = set(check_docs.verb_flags("serve"))
    assert {"--listen", "--shard", "--snapshot", "--cache-size"} <= serve
    assert not {"--slots", "--wave-size", "--wave-window", "--jobs"} & serve
    assert "--jobs" in check_docs.verb_flags("query")


def test_repository_docs_pass():
    assert check_docs.main([]) == 0


TRAJECTORY = """\
| config   | seed (s) | current (s) |
|----------|---------:|------------:|
| fig9/d=4 |     2.50 |        0.40 |
| fig9/d=5 |    54.38 |        0.74 |
| fig9/d=9 |     1.00 |        1.00 |

| other    | current (s) is not a header here |
|----------|------|
"""


def test_trajectory_cells_read_only_the_current_column():
    assert check_docs.trajectory_cells(TRAJECTORY) == [
        (3, "fig9/d=4", "0.40"), (4, "fig9/d=5", "0.74"), (5, "fig9/d=9", "1.00"),
    ]


def test_trajectory_mismatch_fails(tmp_path):
    doc = tmp_path / "PERFORMANCE.md"
    doc.write_text(TRAJECTORY)
    configs = {"fig9/d=4": {"wall_s": 0.4045}, "fig9/d=5": {"wall_s": 0.7307}}
    failures = check_docs.check_trajectory(doc, configs)
    assert len(failures) == 2
    assert "PERFORMANCE.md:4: fig9/d=5 reads 0.74, the baseline's wall_s is 0.73" in failures[0]
    assert "PERFORMANCE.md:5: fig9/d=9 has no wall_s" in failures[1]
    configs["fig9/d=5"]["wall_s"] = 0.7449
    configs["fig9/d=9"] = {"wall_s": 1.0}
    assert check_docs.check_trajectory(doc, configs) == []


def test_trajectory_table_must_exist(tmp_path):
    doc = tmp_path / "PERFORMANCE.md"
    doc.write_text("No table.\n")
    assert "no table with a 'current (s)' column" in check_docs.check_trajectory(doc, {})[0]
