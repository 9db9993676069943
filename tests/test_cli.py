"""Command-line interface: output formats, exit codes, flag handling."""
import gc
import json
import os
import re
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

import asdist
import asdist.tauberian
from asdist import DivisorModule, Place, PrecisionError, UnsupportedInputError
from asdist.cli import main, parse_module


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# stdout of one small run of each subcommand in text, json and tsv
PINNED = {
    "series --q 2 --p 2 --order 4": (
        'coefficients 1,0,6,0,24\n',
        ('{"command":"series","data":[1,0,6,0,24],"group":{"p":2,'
         '"r":1},"meta":{"order":4,"precision_bits":null},'
         '"model":{"class_number":1,"clp_order":1,"genus":0,'
         '"l_poly":[1],"p":2,"q":2}}\n'),
        'n\tvalue\n0\t1\n1\t0\n2\t6\n3\t0\n4\t24\n',
    ),
    "count --q 2 --p 2 --order 4": (
        'partial sums 1,1,7,7,31\n',
        ('{"command":"count","data":[1,1,7,7,31],"group":{"p":2,'
         '"r":1},"meta":{"order":4,"precision_bits":null},'
         '"model":{"class_number":1,"clp_order":1,"genus":0,'
         '"l_poly":[1],"p":2,"q":2}}\n'),
        'n\tvalue\n0\t1\n1\t1\n2\t7\n3\t7\n4\t31\n',
    ),
    "conductor --q 2 --p 2 --module 1^2": (
        'conductor 1^2 (degree 2): 2 extensions\n',
        ('{"command":"conductor","data":[{"count":2,"degree":2,'
         '"module":"1^2"}],"group":{"p":2,"r":1},"meta":{"order":null,'
         '"precision_bits":null},"model":{"class_number":1,'
         '"clp_order":1,"genus":0,"l_poly":[1],"p":2,"q":2}}\n'),
        'n\tvalue\n2\t2\n',
    ),
    "poles --q 3 --p 3": (
        'abscissa 1, pole order 2, progression 6\n',
        ('{"command":"poles","data":[{"abscissa":1,"log_order":2,'
         '"max_order_angles":[0],"pole_angles":[0,"1/6","1/3",'
         '"1/2","2/3","5/6"],"progression":6}],"group":{"p":3,'
         '"r":1},"meta":{"order":null,"precision_bits":null},'
         '"model":null}\n'),
        'n\tvalue\nabscissa\t1\nlog_order\t2\nprogression\t6\n',
    ),
    "constant --q 3 --p 3": (
        'closed-form 0.199338283520328, tauberian 0.19933828 (delta 7.8e-61)\n',
        ('{"command":"constant","data":[{"closed_form":"0.19933828352",'
         '"delta":"7.8045912305e-61","exponent":1,"log_order":2,'
         '"tauberian":"0.19933828352"}],"group":{"p":3,"r":1},'
         '"meta":{"degree_cutoff":41,"order":null,"precision_bits":200},'
         '"model":{"class_number":1,"clp_order":1,"genus":0,'
         '"l_poly":[1],"p":3,"q":3}}\n'),
        ('n\tvalue\ntauberian\t0.19933828352\nlog_order\t2\nexponent\t1\n'
         'closed_form\t0.19933828352\ndelta\t7.8045912305e-61\n'),
    ),
    "oracle --q 2 --p 2 --bound 4": (
        'oracle counts 1,0,6,0,24\n',
        ('{"command":"oracle","data":[1,0,6,0,24],"group":{"p":2,'
         '"r":1},"meta":{"order":4,"precision_bits":null},'
         '"model":{"genus":0,"p":2,"q":2}}\n'),
        'n\tvalue\n0\t1\n1\t0\n2\t6\n3\t0\n4\t24\n',
    ),
    "compare --q 2 --p 2 --bound 4": (
        'match 3/3 degrees\n',
        ('{"command":"compare","data":[{"degree":0,"oracle":1,'
         '"series":1},{"degree":1,"oracle":0,"series":0},{"degree":2,'
         '"oracle":6,"series":6},{"degree":3,"oracle":0,"series":0},'
         '{"degree":4,"oracle":24,"series":24}],"group":{"p":2,'
         '"r":1},"meta":{"mismatches":0,"order":4,"precision_bits":null},'
         '"model":{"class_number":1,"clp_order":1,"genus":0,'
         '"l_poly":[1],"p":2,"q":2}}\n'),
        'n\tvalue\n0\t1|1\n1\t0|0\n2\t6|6\n3\t0|0\n4\t24|24\n',
    ),
    "disc --q 2 --p 2 --order 4": (
        ('conductor-side exponent 1 .. 1, tame prediction 1 (equal)\n'
         'discriminant counts 1,1,7,7,31\n'),
        ('{"command":"disc","data":[{"comparison":"equal",'
         '"lower_exponent":1,"malle_exponent":1,"upper_exponent":1,'
         '"z_table":[1,1,7,7,31]}],"group":{"p":2,"r":1},"meta":{"order":4,'
         '"precision_bits":null},"model":{"class_number":1,'
         '"clp_order":1,"genus":0,"l_poly":[1],"p":2,"q":2}}\n'),
        'n\tvalue\n0\t1\n1\t1\n2\t7\n3\t7\n4\t31\n',
    ),
}

_FLOAT = re.compile(r"\d+\.\d+(?:e[-+]?\d+)?")


@pytest.mark.parametrize("case", PINNED)
def test_every_subcommand_prints_its_pinned_bytes(capsys, case):
    for fmt, want in zip(("text", "json", "tsv"), PINNED[case]):
        code, out, err = run(capsys, *case.split(), "--format", fmt)
        assert (code, err) == (0, ""), fmt
        if case.startswith("constant"):
            # the floats agree to the 12 significant digits printed; every
            # other byte is exact
            assert _FLOAT.sub("#", out) == _FLOAT.sub("#", want), fmt
            got = [float(x) for x in _FLOAT.findall(out)]
            expected = [float(x) for x in _FLOAT.findall(want)]
            assert got == pytest.approx(expected, rel=1e-11, abs=0), fmt
        else:
            assert out == want, fmt


def test_parse_module():
    assert parse_module("1") == DivisorModule.trivial()
    assert parse_module("1^2") == DivisorModule.from_entries({Place(1, "_0"): 2})
    assert parse_module("2.a^3,1.b^2") == DivisorModule.from_entries(
        {Place(2, "a"): 3, Place(1, "b"): 2}
    )
    with pytest.raises(UnsupportedInputError):
        parse_module("x^2")
    with pytest.raises(UnsupportedInputError):
        parse_module("1.a^2,1.a^3")


def test_series_text(capsys):
    code, out, _ = run(capsys, "series", "--q", "2", "--p", "2", "--order", "6")
    assert code == 0
    assert out.strip() == "coefficients 1,0,6,0,24,0,96"


def test_series_json_schema_and_determinism(capsys):
    argv = ["series", "--q", "3", "--p", "3", "--order", "4",
            "--format", "json"]
    code, out1, _ = run(capsys, *argv)
    assert code == 0
    code, out2, _ = run(capsys, *argv)
    assert out1 == out2
    payload = json.loads(out1)
    assert set(payload) == {"command", "model", "group", "data", "meta"}
    assert payload["command"] == "series"
    assert payload["group"] == {"p": 3, "r": 1}
    assert payload["data"] == [1, 0, 12, 36, 72]
    assert payload["meta"]["order"] == 4


def test_series_tsv(capsys):
    code, out, _ = run(capsys, "series", "--q", "2", "--p", "2",
                       "--order", "2", "--format", "tsv")
    assert code == 0
    assert out.splitlines() == ["n\tvalue", "0\t1", "1\t0", "2\t6"]


def test_count_partial_sums(capsys):
    code, out, _ = run(capsys, "count", "--q", "2", "--p", "2", "--order", "4")
    assert code == 0
    assert out.strip() == "partial sums 1,1,7,7,31"


def test_conductor_command(capsys):
    code, out, _ = run(capsys, "conductor", "--q", "2", "--p", "2",
                       "--module", "1^2")
    assert code == 0
    assert "2 extensions" in out and "degree 2" in out
    code, out, _ = run(capsys, "conductor", "--q", "3", "--p", "3",
                       "--module", "1")
    assert code == 0
    assert "1 extensions" in out


def test_poles_command(capsys):
    code, out, _ = run(capsys, "poles", "--q", "3", "--p", "3")
    assert code == 0
    # the period of the angles, not a count: 4 of the 6 are poles
    assert out.strip() == "abscissa 1, pole order 2, progression 6"
    code, out, err = run(capsys, "poles", "--q", "5", "--p", "3")
    assert (code, out, err) == (2, "", "error: q = 5 is not a power of p = 3\n")


def test_constant_command(capsys):
    # every printed digit holds: a cutoff of 20 prints tauberian 2.0000001
    # here and closed-form 0.199338283524323 at q = 3
    code, out, _ = run(capsys, "constant", "--q", "2", "--p", "2")
    assert code == 0
    assert out.startswith("closed-form 2, tauberian 2.0 (delta ")
    code, out, _ = run(capsys, "constant", "--q", "3", "--p", "3")
    assert code == 0
    assert out.startswith("closed-form 0.199338283520328, tauberian 0.19933828 ")


def test_constant_pole_finder_failure_exits_3(capsys, monkeypatch):
    # the numeric failure of principal_parts' root finder is checked in
    # test_tauberian; here a PrecisionError raised at a pole exits 3
    def imprecise(*args, **kwargs):
        raise PrecisionError("holomorphic factor did not converge")

    monkeypatch.setattr(asdist.tauberian, "holomorphic_factor_value", imprecise)
    code, out, err = run(capsys, "constant", "--q", "3", "--p", "3")
    assert (code, out) == (3, "")
    assert "did not converge" in err


def test_oracle_and_compare(capsys):
    code, out, _ = run(capsys, "oracle", "--q", "2", "--p", "2",
                       "--bound", "4")
    assert code == 0
    assert out.strip() == "oracle counts 1,0,6,0,24"
    code, out, _ = run(capsys, "compare", "--q", "2", "--p", "2",
                       "--bound", "6")
    assert code == 0
    assert out.strip() == "match 4/4 degrees"


def test_disc_command(capsys):
    code, out, _ = run(capsys, "disc", "--q", "2", "--p", "2", "--order", "6")
    assert code == 0
    assert "tame prediction 1 (equal)" in out
    assert "discriminant counts 1,1,7,7,31,31,127" in out


def test_elliptic_model_from_flags(capsys):
    code, out, _ = run(capsys, "series", "--q", "2", "--p", "2", "--genus", "1",
                       "--l-poly", "1,-1,2", "--clp-order", "2", "--order", "4")
    assert code == 0
    assert out.strip() == "coefficients 3,0,0,0,24"


def test_impossible_models_and_modules_exit_2(capsys):
    code, _, err = run(capsys, "series", "--q", "2", "--p", "2", "--genus", "1",
                       "--l-poly", "1,0,2", "--clp-order", "4", "--order", "6")
    assert code == 2 and "clp_order" in err
    code, out, err = run(capsys, "series", "--q", "2", "--p", "2", "--genus", "1",
                         "--l-poly", "1,x")
    assert (code, out) == (2, "") and "--l-poly" in err
    # 1 + 5t + 3t^2 over F_3 gives N_1 = 9 and N_2 = -9, so 2 b_2 = -9 - b_1
    code, out, err = run(capsys, "series", "--q", "3", "--p", "3", "--genus", "1",
                         "--l-poly", "1,5,3")
    assert (code, out) == (2, "")
    assert err == "error: inconsistent L-polynomial: place count b_2 = -18/2\n"
    code, _, err = run(capsys, "conductor", "--q", "2", "--p", "2",
                       "--module", "1.a^2,1.b^2,1.c^2,1.d^2")
    assert code == 2 and "places of degree 1" in err
    code, out, err = run(capsys, "conductor", "--q", "2", "--p", "2",
                         "--module", "20000^2")
    assert (code, out) == (2, "") and "--module" in err
    for argv in (
        ["series", "--q", "2", "--p", "2", "--order", "-1"],
        ["count", "--q", "2", "--p", "2", "--order", "-1"],
        ["disc", "--q", "2", "--p", "2", "--order", "-1"],
        ["disc", "--q", "3", "--p", "3", "--r", "2", "--order", "-1"],
        ["compare", "--q", "2", "--p", "2", "--bound", "-1"],
        ["oracle", "--q", "2", "--p", "2", "--bound", "-1"],
        ["poles", "--q", "4", "--p", "4"],
        ["poles", "--q", "3", "--p", "3", "--r", "0"],
        ["oracle", "--q", "2", "--p", "2", "--r", "0", "--bound", "3"],
        ["oracle", "--q", "2", "--p", "2", "--r", "-1", "--bound", "3"],
        ["oracle", "--q", "2", "--p", "1", "--bound", "2"],
        ["oracle", "--q", "2", "--p", "0", "--bound", "2"],
        ["series", "--q", "2", "--p", "2", "--order", "100000000"],
        ["count", "--q", "2", "--p", "2", "--order", "100000000"],
        ["disc", "--q", "2", "--p", "2", "--order", "100000000"],
        ["poles", "--q", "5", "--p", "3"],
        ["poles", "--q", "0", "--p", "2"],
        ["oracle", "--q", "6", "--p", "2", "--bound", "2"],
        ["poles", "--q", "2", "--p", "2", "--r", "65"],
        ["series", "--q", "2", "--p", "2", "--r", "65"],
        ["oracle", "--q", "2", "--p", "2", "--bound", "100000"],
        ["compare", "--q", "2", "--p", "2", "--bound", "100000"],
        ["constant", "--q", "131", "--p", "131"],
        ["poles", "--q", "100000000000031", "--p", "100000000000031"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:"), argv
        if argv[-1] == "100000":
            assert "--bound" in err, argv
    # compare checks its input as the census does, so both say the same
    errs = [run(capsys, command, "--q", "2", "--p", "2", "--bound", "-1")[2]
            for command in ("compare", "oracle")]
    assert errs[0] == errs[1] == (
        "error: conductor degree bound must be >= 0, got -1\n")


def test_genus2_exceptional_module_needs_its_count_under_any_label(capsys):
    for module in ("1.a^2", "1.0^2"):
        code, out, err = run(capsys, "conductor", "--q", "2", "--p", "2",
                             "--genus", "2", "--l-poly", "1,0,0,0,4",
                             "--module", module)
        assert code == 2 and out == ""
        assert "missing exceptional conductor count" in err


def _cli_env() -> dict:
    """The environment of a child `python -m asdist.cli`: this checkout's
    package first on its PYTHONPATH."""
    src = str(Path(asdist.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def _cli_process(*argv, timeout, address_space=None):
    """`python -m asdist.cli argv` as a child process, killed after
    `timeout` seconds, its address space capped at `address_space` bytes."""

    def cap():
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run([sys.executable, "-m", "asdist.cli", *argv],
                          env=_cli_env(),
                          capture_output=True, text=True, timeout=timeout,
                          preexec_fn=cap if address_space else None)


def test_closed_stdout_exits_1_without_a_traceback():
    # the JSON is 327,110 bytes, far past a pipe's buffer, so the child is
    # still writing when its reader closes the pipe (as `| head -c 100`
    # does); it once ended in a BrokenPipeError traceback
    proc = subprocess.Popen([sys.executable, "-m", "asdist.cli", "poles",
                             "--q", "11", "--p", "11", "--format", "json"],
                            env=_cli_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        _, err = proc.communicate(timeout=30)
    finally:
        proc.kill()
    assert (proc.returncode, err) == (1, "")


def test_genus2_series_without_counts_exits_2_at_once():
    # the genus-2 field over F_3 has 13 places of degree <= 2, so 4^13
    # exceptional modules; they were once all built before the first
    # missing count was noticed, a run that grew without bound
    proc = _cli_process("series", "--q", "3", "--p", "3", "--genus", "2",
                        "--l-poly", "1,0,6,0,9", "--order", "5",
                        timeout=10, address_space=1 << 30)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "missing exceptional conductor count" in proc.stderr


def test_poles_text_and_tsv_at_p17_run_at_once():
    # the period is lcm(2..17) = 12,252,240; only JSON lists the lattice
    for fmt in ("text", "tsv"):
        proc = _cli_process("poles", "--q", "17", "--p", "17", "--format", fmt,
                            timeout=5)
        assert proc.returncode == 0, proc.stderr
        assert "12252240" in proc.stdout


def test_poles_json_at_p17_exits_2_at_once():
    # JSON lists every lattice angle: at p = 17 it once wrote 205 MB in
    # 22 s and peaked at 1.3 GB
    proc = _cli_process("poles", "--q", "17", "--p", "17", "--format", "json",
                        timeout=5, address_space=1 << 30)
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert "ell = 12252240" in proc.stderr


def test_census_below_bound_2_builds_no_constant_field():
    # only the constants fit below conductor degree 2; F_q was once built in
    # full anyway, 36-60 s at these q and longer at 3^20
    for q, p, bound in [(59049, 3, 1), (59049, 3, 0), (65536, 2, 1),
                        (262144, 2, 0), (3486784401, 3, 1)]:
        proc = _cli_process("oracle", "--q", str(q), "--p", str(p),
                            "--bound", str(bound), timeout=10)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "oracle counts " + "1,0"[:2 * bound + 1] + "\n"


def test_invalid_input_exit_code(capsys):
    code, _, err = run(capsys, "series", "--q", "6", "--p", "2")
    assert code == 2
    assert err.startswith("error:")
    code, _, err = run(capsys, "conductor", "--q", "2", "--p", "2",
                       "--module", "bogus^^")
    assert code == 2
    code, _, err = run(capsys, "oracle", "--q", "2", "--p", "2",
                       "--bound", "8", "--budget", "10")
    assert code == 2


def test_entry_point_freezes_the_heap_before_main():
    # the child swaps main for a probe, so only run() itself can freeze
    src = str(Path(asdist.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    child = (
        "import gc, asdist.cli as cli\n"
        "cli.main = lambda argv=None: print(gc.get_freeze_count()) or 0\n"
        "cli.run()\n"
    )
    proc = subprocess.run([sys.executable, "-c", child], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 0


def test_entry_point_prints_counts_of_any_length():
    # the count has 6,361 digits, more than Python converts to decimal by
    # default (4,300); an integer in argv must still fit that limit
    src = str(Path(asdist.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    count = asdist.conductor_count(
        asdist.rational_field(59049, 3), asdist.subgroup_count_poly(3, 1),
        parse_module("1^2000"),
    )

    def cli(*argv):
        return subprocess.run([sys.executable, "-m", "asdist.cli", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=120)

    for fmt in ("text", "json"):
        proc = cli("conductor", "--q", "59049", "--p", "3",
                   "--module", "1^2000", "--format", fmt)
        assert proc.returncode == 0, proc.stderr
        digits = max(re.findall(r"\d+", proc.stdout), key=len)
        assert len(digits) == 6361
        assert Decimal(digits) == count
    proc = cli("series", "--q", "1" * 5000, "--p", "2")
    assert proc.returncode == 2 and "invalid int value" in proc.stderr


def test_main_does_not_freeze(capsys):
    before = gc.get_freeze_count()
    code, _, _ = run(capsys, "compare", "--q", "2", "--p", "2", "--bound", "4")
    assert code == 0
    assert gc.get_freeze_count() == before
