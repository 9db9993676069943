"""Importing the package: the collector is paused while the import-time heap
is built, and that heap ends in the oldest generation."""
import os
import subprocess
import sys
from pathlib import Path

import asdist

# CPython 3.12's collector moves immortal objects (a few hundred of its own
# tuples) to the permanent generation, so there the freeze count is nonzero
# after any collection, and the import, which leaves a nonempty permanent
# generation alone, skips the promotion.  The children that check the
# promotion start from an empty one, as 3.10, 3.11 and 3.13 do.
EMPTY_PERMANENT = "import gc\ngc.collect()\ngc.unfreeze()\n"


def child(code: str) -> str:
    # a fresh interpreter, so that asdist is not imported yet
    src = str(Path(asdist.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_runs_no_collection():
    out = child(
        EMPTY_PERMANENT
        + "starts = []\n"
        "gc.callbacks.append(lambda phase, info: phase == 'start'"
        " and starts.append(info['generation']))\n"
        "import asdist\n"
        "print(len(starts))\n"
    )
    assert out == "0"


def test_import_restores_the_collector_state():
    code = "import gc\n{}import asdist\nprint(gc.isenabled())\n"
    assert child(code.format("")) == "True"
    assert child(code.format("gc.disable()\n")) == "False"


def test_import_leaves_nothing_frozen():
    out = child(EMPTY_PERMANENT + "import asdist\nprint(gc.get_freeze_count())\n")
    assert out == "0"


def test_import_keeps_a_host_freeze():
    out = child(
        "import gc\n"
        "gc.freeze()\n"
        "before = gc.get_freeze_count()\n"
        "import asdist\n"
        "print(before, gc.get_freeze_count())\n"
    )
    # a few frozen objects may die during the import; an unfreeze would
    # leave 0 and a freeze would add the whole import heap
    before, after = map(int, out.split())
    assert 0 < after <= before


def test_import_heap_is_in_the_oldest_generation():
    out = child(
        EMPTY_PERMANENT
        + "import asdist.oracle\n"
        "print(any(o is asdist.oracle.oracle_counts"
        " for o in gc.get_objects(generation=2)))\n"
    )
    assert out == "True"


def test_import_keeps_a_host_s_unclosed_writes(tmp_path):
    # A file left open at module level is flushed when the interpreter frees
    # it at exit.  A module-level function puts the host's globals in a
    # reference cycle, which only the exit-time collection frees, and that
    # collection skips frozen objects: a heap frozen at exit, or an import
    # heap (the host's globals included) left frozen, loses the write.
    target = tmp_path / "out.txt"
    child(
        "import asdist\n"
        "def report(text):\n"
        "    log.write(text)\n"
        f"log = open({str(target)!r}, 'w')\n"
        "report('x')\n"
    )
    assert target.read_text() == "x"
