"""Smoke checks that hierwave runs on the standard library alone.

Run from the repository root with nothing installed, or without ``site``:

    PYTHONPATH=src python -S tests/stdlib_smoke.py

The checks run in order, in a fresh temporary directory, one function each.
The script prints one line per check, shows the output and traceback of
each failing one, and exits 1 if any failed.  The import-scope check and
the CLI runs start fresh interpreters that keep this one's ``-S`` flag, so
a module from outside the standard library fails there as it does with
nothing installed.  Nothing is written outside the temporary directory:
no bytecode, and every input and output file lives there.
"""

import contextlib
import glob
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

sys.dont_write_bytecode = True

import hierwave  # noqa: E402  (imports no submodule)

SRC = os.path.dirname(os.path.dirname(os.path.abspath(hierwave.__file__)))


def data(name):
    return os.path.join(SRC, "hierwave", "data", name)


def _child(*args):
    """Run a fresh interpreter on the package under test, with this one's -S."""
    flags = ["-B", "-S"] if sys.flags.no_site else ["-B"]
    return subprocess.run([sys.executable, *flags, *args], capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": SRC})


def _cli(*argv):
    proc = _child("-m", "hierwave.cli", *argv)
    assert proc.returncode == 0, (proc.returncode, proc.stderr[-1000:])


def import_package():
    import hierwave.cli  # noqa: F401


# each subcommand imports only the modules it runs: decompose loads rep_theory
# alone, beside the leaf module _value that holds the value-type base
IMPORT_SCOPE = """
import sys
import hierwave.cli
assert hierwave.cli.main(['decompose', '--spins', '1/2,1/2']) == 0
loaded = sorted(m for m in sys.modules if m.startswith('hierwave.'))
assert loaded == ['hierwave._value', 'hierwave.cli', 'hierwave.rep_theory'], loaded
"""


def decompose_loads_rep_theory_alone():
    proc = _child("-c", IMPORT_SCOPE)
    assert proc.returncode == 0, proc.stderr[-1000:]


# no subcommand loads dataclasses, nor inspect, which dataclasses imports, nor
# typing: each value type is a plain class with __slots__ and each record a
# collections.namedtuple; classify reads a series written here, since none is
# bundled
NO_DATACLASSES = """
import sys
started = set(sys.modules)  # without -S, a site .pth file may have loaded typing already
import math, os
from pathlib import Path
import hierwave.cli
data = sys.argv[1]
Path('cos.csv').write_text(''.join(f'{math.cos(k / 50)}\\n' for k in range(200)))
for argv in (['decompose', '--spins', '1/2,1/2,1'],
             ['repair', '--scenario', os.path.join(data, 'hydra.json'), '--remove', '1,2'],
             ['validate', '--state', os.path.join(data, 'two_spin_example.json')],
             ['pauli', '--state', os.path.join(data, 'two_spin_example.json')],
             ['info', '--state', os.path.join(data, 'two_spin_example.json')],
             ['simulate', '--config', os.path.join(data, 'harmonic_benchmark.json'), '--out', 'nd.csv'],
             ['classify', '--series', 'cos.csv', '--quantization', '0.05']):
    assert hierwave.cli.main(argv) == 0, argv
    loaded = sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules) - started)
    assert loaded == [], (argv, loaded)
"""


def no_subcommand_loads_dataclasses():
    proc = _child("-c", NO_DATACLASSES, data(""))
    assert proc.returncode == 0, proc.stderr[-1000:]


def deep_scenario_and_long_index_fail_by_name():
    # a 600-level scenario and a 5,000-digit index exit 1 with a named error, not a traceback
    import hierwave.cli
    part = '{"name": "p", "irrep": "1/2", "subcomponents": ['
    leaf = '{"name": "leaf", "irrep": "1/2"}'
    Path('deep.json').write_text('{"target": "0", "components": [' + part * 600 + leaf + ']}' * 600 + ']}')
    cases = [
        (['repair', '--scenario', 'deep.json', '--remove', '0'],
         'error: ValueError: not a hierwave scenario: maximum recursion depth exceeded'),
        (['repair', '--scenario', data('hydra.json'), '--remove', '9' * 5000],
         'error: ValueError: --remove index must be an integer, got ' + repr('9' * 40) + '... (5000 characters)'),
    ]
    for argv, message in cases:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert hierwave.cli.main(argv) == 1, argv[:3]
        text = err.getvalue()
        assert text.startswith(message) and 'Traceback' not in text, text[:300]


def two_spin_labels_and_cut_errors():
    # the paper's two-spin example on the tree's own labels; a 900-deep m0 and a
    # 4,000-digit sweep count exit 1 with their error text cut at 1,000 characters
    import hierwave.cli
    from hierwave.physicality import Reason, check_basis_state
    from hierwave.state_tree import SpinWeight
    physical = {(tM, ms) for ms in itertools.product((1, -1), repeat=2) for tJ in (0, 2)
                for tM in range(-tJ, tJ + 1, 2)
                if check_basis_state(SpinWeight(tJ, tM), [SpinWeight(1, m) for m in ms]).physical}
    assert physical == {(2, (1, 1)), (-2, (-1, -1)), (0, (1, -1)), (0, (-1, 1))}, physical
    report = check_basis_state(SpinWeight(2, -2), [SpinWeight(1, 1), SpinWeight(1, 1)])
    assert report.reasons == (Reason.WEIGHT_MISMATCH,), report
    cfg = json.loads(Path(data('harmonic_benchmark.json')).read_text())
    cfg['m0'] = json.loads('[' * 900 + ']' * 900)
    Path('deep_m0.json').write_text(json.dumps(cfg))
    cases = [
        ['simulate', '--config', 'deep_m0.json'],
        ['simulate', '--config', data('harmonic_benchmark.json'), '--out', 'sw',
         '--sweep', 'm0=0:1:' + '9' * 4000],
    ]
    for argv in cases:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert hierwave.cli.main(argv) == 1, argv[:3]
        text = err.getvalue()
        assert text.startswith('error: ValueError: ') and 'Traceback' not in text, text[:300]
        assert len(text) <= 1100, len(text)


def no_spring_spellings_and_colliding_sweep():
    # the four spellings of "no spring" write the same CSV bytes; sweep values
    # that would share a CSV file exit 1 before any file is written
    import hierwave.cli
    cfg = json.loads(Path(data('harmonic_benchmark.json')).read_text())
    cfg.update(steps=200, lambda0=0.3, lambda1=0.2, v_init=[0.3, -0.1],
               potential_Lambda={'type': 'linear', 'kappa': 0.5})
    del cfg['potential_U']
    csvs = []
    for spelling in ('missing', None, {'type': 'none'}, {'type': 'harmonic', 'k': 0}):
        Path('nospring.json').write_text(json.dumps(cfg if spelling == 'missing' else {**cfg, 'potential_U': spelling}))
        assert hierwave.cli.main(['simulate', '--config', 'nospring.json', '--out', 'nospring.csv']) == 0
        csvs.append(Path('nospring.csv').read_bytes())
    assert len(csvs[0].splitlines()) == 202 and csvs == [csvs[0]] * 4
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = hierwave.cli.main(['simulate', '--config', data('harmonic_benchmark.json'),
                                  '--out', 'collide', '--sweep', 'm0=1:1.000001:3'])
    text = err.getvalue()
    assert code == 1 and text.startswith('error: ValueError: sweep values 1 and ') and 'Traceback' not in text, text
    assert glob.glob('collide*') == [], glob.glob('collide*')


def stiff_simulate_fails_by_name():
    # RK4 far outside its stability interval overflows: simulate exits 1 with a
    # named error and writes only the finite samples
    cfg = json.loads(Path(data('harmonic_benchmark.json')).read_text())
    cfg.update(potential_U={'type': 'harmonic', 'k': 1e6}, x_init=[1, 0], dt=1, steps=400)
    Path('stiff.json').write_text(json.dumps(cfg))
    proc = _child('-m', 'hierwave.cli', 'simulate', '--config', 'stiff.json', '--out', 'stiff.csv')
    assert proc.returncode == 1, (proc.returncode, proc.stderr[-1000:])
    assert proc.stderr.startswith('error: NonFiniteStateError: ') and 'Traceback' not in proc.stderr, proc.stderr
    text = Path('stiff.csv').read_text()
    assert 'nan' not in text and len(text.splitlines()) == 15, text[-300:]


def overflowing_momentum_fails_by_name():
    # a starting velocity whose cube overflows a float: simulate exits 1 with a named
    # error after sample 0, not with an OverflowError traceback
    cfg = json.loads(Path(data('harmonic_benchmark.json')).read_text())
    cfg['v_init'] = [1e103, 0]
    Path('fast.json').write_text(json.dumps(cfg))
    proc = _child('-m', 'hierwave.cli', 'simulate', '--config', 'fast.json', '--out', 'fast.csv')
    assert proc.returncode == 1, (proc.returncode, proc.stderr[-1000:])
    assert proc.stderr.startswith('error: NonFiniteStateError: ') and 'Traceback' not in proc.stderr, proc.stderr
    assert len(Path('fast.csv').read_text().splitlines()) == 2


def cli_decompose():
    _cli('decompose', '--spins', '1/2,1/2,1')


def cli_repair():
    _cli('repair', '--scenario', data('hydra.json'), '--remove', '1,2', '--max-depth', '3')


def cli_validate():
    _cli('validate', '--state', data('two_spin_example.json'))


def cli_pauli():
    _cli('pauli', '--state', data('two_spin_example.json'), '--scope', '1')


def cli_info():
    _cli('info', '--state', data('two_spin_example.json'))


def cli_simulate():
    _cli('simulate', '--config', data('harmonic_benchmark.json'), '--out', 't.csv')


def cli_simulate_sweep():
    # m0 = 0 is rejected by the config: recorded as a row of the sweep, which still exits 0
    _cli('simulate', '--config', data('harmonic_benchmark.json'), '--out', 'sw', '--sweep', 'm0=0:1:2')


def write_cosine_series():
    Path('s.csv').write_text(''.join(f'{math.cos(k / 50)}\n' for k in range(2000)))


def cli_classify_cosine():
    _cli('classify', '--series', 's.csv', '--quantization', '0.05')


def write_uniform_series():
    # a large alphabet (about 600 symbols) exercises the coder's recency-rank bisection
    r = random.Random(7)
    Path('u.csv').write_text(''.join(f'{r.uniform(-3, 3)!r}\n' for _ in range(20000)))


def cli_classify_uniform():
    _cli('classify', '--series', 'u.csv', '--quantization', '0.01')


def classify_names_bad_line():
    # a CRLF series with a bad value on line 5,001: classify exits 1 and names the
    # line, as it does for a file read line by line
    rows = [f'{0.01 * k!r}' for k in range(5000)] + ['1,5'] + ['0.5'] * 10
    Path('bad.csv').write_bytes('\r\n'.join(rows).encode() + b'\r\n')
    proc = _child('-m', 'hierwave.cli', 'classify', '--series', 'bad.csv', '--quantization', '0.01')
    assert proc.returncode == 1, (proc.returncode, proc.stderr[-1000:])
    assert proc.stderr == "error: ValueError: bad.csv:5001: value '1,5' is not a number\n", proc.stderr[-1000:]
    assert 'Traceback' not in proc.stderr


def clebsch_gordan_tables():
    # no CLI command reaches clebsch_gordan: build its full (7,7) and (6,4) tables directly,
    # then check the singlet and stretched closed forms at 2j = 1000 bit for bit
    from hierwave.rep_theory import CGQuery, clebsch_gordan as cg
    for a, b in ((7, 7), (6, 4)):
        ms = [(m1, m2) for m1 in range(-a, a + 1, 2) for m2 in range(-b, b + 1, 2)]
        cols = {(J, M): [cg(CGQuery(a, m1, b, m2, J, M)) for m1, m2 in ms]
                for J in range(abs(a - b), a + b + 1, 2) for M in range(-J, J + 1, 2)}
        for (J, M), u in cols.items():
            for K, v in cols.items():
                assert abs(sum(x * y for x, y in zip(u, v)) - ((J, M) == K)) < 1e-12, (a, b, J, M, K)
            phase = (-1) ** ((a + b - J) // 2)
            for (m1, m2), x in zip(ms, u):
                assert cg(CGQuery(a, -m1, b, -m2, J, -M)) == phase * x, (a, b, m1, m2, J, M)
    j = 1000
    for m in range(-j, j + 1, 2):
        assert cg(CGQuery(j, m, j, -m, 0, 0)) == math.sqrt(1 / (j + 1)) * (-1) ** ((j - m) // 2), m
    assert cg(CGQuery(j, j, j, j, 2 * j, 2 * j)) == 1.0


def decompose_product_catalan():
    # decompose_product counts weights in one big-integer product: check 200 spin-1/2
    # factors against the closed form, the singlet count being the Catalan number C_100
    from math import comb
    from hierwave.rep_theory import IrrepLabel, decompose_product
    mult = {lab.twice_j: m for lab, m in decompose_product([IrrepLabel(1)] * 200)}
    assert sorted(mult) == list(range(0, 201, 2)), sorted(mult)
    for J in range(101):
        assert mult[2 * J] == comb(200, 100 - J) - (comb(200, 99 - J) if J < 100 else 0), J
    assert mult[0] == comb(200, 100) // 101, mult[0]


CHECKS = [
    import_package,
    decompose_loads_rep_theory_alone,
    no_subcommand_loads_dataclasses,
    deep_scenario_and_long_index_fail_by_name,
    two_spin_labels_and_cut_errors,
    no_spring_spellings_and_colliding_sweep,
    stiff_simulate_fails_by_name,
    overflowing_momentum_fails_by_name,
    cli_decompose,
    cli_repair,
    cli_validate,
    cli_pauli,
    cli_info,
    cli_simulate,
    cli_simulate_sweep,
    write_cosine_series,
    cli_classify_cosine,
    write_uniform_series,
    cli_classify_uniform,
    classify_names_bad_line,
    clebsch_gordan_tables,
    decompose_product_catalan,
]


def main() -> int:
    if not __debug__:
        sys.exit("stdlib_smoke.py checks with assert: run it without -O")
    failed = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="hierwave-smoke-") as tmp:
        os.chdir(tmp)
        try:
            for check in CHECKS:
                out = io.StringIO()
                try:
                    with contextlib.redirect_stdout(out):
                        check()
                except Exception:
                    failed.append(check.__name__)
                    print(f"FAIL {check.__name__}\n{out.getvalue()}", end="", flush=True)
                    traceback.print_exc(file=sys.stdout)
                else:
                    print(f"ok   {check.__name__}")
        finally:
            os.chdir(cwd)
    print(f"{len(CHECKS)} checks, {len(failed)} failed: {', '.join(failed) or 'none'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
