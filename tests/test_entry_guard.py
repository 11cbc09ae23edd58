"""Every function in src/thetaforge is entered by a documented command, or
is on ALLOWLIST with its reason.

One fresh interpreter sets a profile hook before `import thetaforge`
(cliffcode builds E_MATRICES at import time), runs COMMANDS through
cli.main, and reports every function of the package it entered.  The
interpreter is made to report two CPUs, so the real _can_split says yes
and the wide walks of desk fork.  A function is every `def` in the
package, methods and nested functions included; a lambda or a
comprehension counts as part of the function that holds it.

A failure names the functions at fault:
- "never entered": no command reaches the function.  Give it a command,
  add one that reaches it to COMMANDS, move it into the tests as a
  reference helper, or delete it;
- "allowlisted but entered": a command now reaches it; drop its entry;
- "allowlisted but not defined": it was renamed or deleted; drop its
  entry.
"""

import argparse
import json
import os
import subprocess
import sys
import types

import pytest

import thetaforge
from thetaforge import cli

from test_benchmark_hooks import traced

PACKAGE = os.path.dirname(os.path.abspath(thetaforge.__file__))

TETRACODE = """\
# the tetracode, listed word by word: 3^2 words, so read as linear
3 4
0 0 0 0
0 1 1 1
0 2 2 2
1 0 1 2
1 1 2 0
1 2 0 1
2 0 2 1
2 1 0 2
2 2 1 0
"""

FILES = {
    "code": TETRACODE,
    "points": "0.1+1j\n-0.3+1.2j  # one component per point at p = 3\n",
    "bad_code": "3 3\n131\n",
    "bad_points": "0.1+1j 1j\n",
    # Im z so small that no shell below the enumeration cap ends the sum
    "far_points": "0.001j\n",
}

# (argv, exit code); {name} is the path of FILES[name].  Every leaf
# subcommand runs once to exit 0; then one malformed input per parser.
COMMANDS = [
    (["verify", "all", "--level", "desk"], 0),
    (["code", "--code", "{code}"], 0),
    (["lattice", "--code", "{code}", "--info"], 0),
    (["qexp", "--prime", "3", "--cutoff", "2", "--power", "-24"], 0),
    (["theta", "--prime", "3", "--class", "1", "--order", "13/3"], 0),
    (["rep", "zmap", "--prime", "3", "--orbit", "1,3", "--order", "4"], 0),
    (["rep", "check-main", "--prime", "5", "--n", "4"], 0),
    (["verify", "alpbach", "--prime", "3", "--code", "tetracode"], 0),
    (["verify", "alpbach", "--prime", "3", "--code", "{code}",
      "--points", "{points}", "--tol", "1e-8"], 0),
    (["verify", "sl2f3", "--z", "0.3+1.5j", "--tol", "1e-7"], 0),
    (["verify", "expansion"], 0),
    (["verify", "e8"], 0),
    (["verify", "golay"], 0),
    (["verify", "orbits"], 0),
    (["verify", "grades"], 0),
    (["verify", "hamming"], 0),
    (["verify", "tower"], 0),
    (["clifford", "verify"], 0),
    (["clifford", "delta", "--word", "0,1", "--minus"], 0),
    (["clifford", "delta", "--word", "0,1,2", "--full"], 0),
    (["tower", "check", "--n", "5"], 0),
    # malformed inputs
    (["tower", "check", "--n"], 2),                              # argparse
    (["verify", "all", "--level", "paper"], 2),                  # choices
    (["qexp", "--prime", "4", "--cutoff", "1"], 2),              # prime
    (["qexp", "--prime", "3", "--cutoff", "1/0"], 2),            # cutoff
    (["theta", "--prime", "3", "--class", "0", "--order", "-1"], 2),
    (["theta", "--prime", "99991", "--class", "1", "--order", "1"], 2),
    (["rep", "zmap", "--prime", "3", "--orbit", "1,x", "--order", "1"], 2),
    (["clifford", "delta", "--word", "0,0"], 2),
    (["clifford", "delta", "--word", "0"], 2),
    (["verify", "sl2f3", "--tol", "0"], 2),
    (["verify", "sl2f3", "--z", "i"], 2),
    (["tower", "check", "--n", "13"], 2),
    (["code", "--code", "{bad_code}"], 2),
    (["lattice", "--code", "no/such/file"], 2),
    (["verify", "alpbach", "--prime", "3", "--code", "{code}",
      "--points", "{bad_points}"], 2),
    (["verify", "alpbach", "--prime", "3", "--code", "{code}",
      "--points", "{far_points}"], 2),
]

# Functions no command enters, each for one of four reasons: a dunder of
# a Python protocol that the tests use, an error path, the forked child of
# a split walk (its calls are made in another process), or a span of
# perfbench/traced.py (read from SPANNED below, not listed here).
REPR = "dunder: the debugging form; no command prints the object"
ALLOWLIST = {
    "cliffcode:CliffordWord.__eq__": "dunder: word equality, for the tests",
    "cliffcode:CliffordWord.__repr__": REPR,
    "cliffcode:SignedMatrix.__repr__": REPR,
    "codelattice:CodeLattice.__repr__": REPR,
    "cyclotomic:CycRat.__hash__": "dunder: hashes a rational element as "
                                  "its value, so == and hash agree",
    "cyclotomic:CycRat.__neg__": "dunder: the ring's negation",
    "cyclotomic:CycRat.__repr__": REPR,
    "cyclotomic:CycRat.__rsub__": "dunder: the ring's subtraction",
    "cyclotomic:CycRat.__sub__": "dunder: the ring's subtraction",
    "fpcode:Code.__eq__": "dunder: code equality, for the tests",
    "fpcode:Code.__hash__": "dunder: hashable with __eq__",
    "fpcode:Code.__repr__": REPR,
    "hilbert_eval:HilbertPoint.__repr__": REPR,
    "octower:Chain.__contains__": "dunder: membership by sifting, for "
                                  "the tests' index-two kernels",
    "qexp:QSeries.__hash__": "dunder: raises, a series is unhashable",
    "qexp:QSeries.__neg__": "dunder: the ring's negation",
    "qexp:QSeries.__repr__": REPR,
    "qexp:QSeries.__rsub__": "dunder: the ring's subtraction",
    "qexp:QSeries.__sub__": "dunder: the ring's subtraction",
    "voarep:OrbitClass.__repr__": REPR,
    "voarep:RepElement.__add__": "dunder: the module's sum, for the tests",
    "voarep:RepElement.__eq__": "dunder: element equality, for the tests",
    "voarep:RepElement.__repr__": REPR,
    "codelattice:_abandon": "error path: the parent side of a split walk "
                            "failed",
    "codelattice:_hand_over": "forked child: the child's end of a split "
                              "walk",
}
KINDS = ("dunder: ", "error path: ", "forked child: ")

PROBE = r"""
import contextlib, io, json, os, sys
entered = set()

def hook(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)

# two CPUs, so the real _can_split forks the wide walks on any box
os.sched_getaffinity = lambda pid: {0, 1}
os.cpu_count = lambda: 2
sys.setprofile(hook)
import thetaforge
from thetaforge import cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            codes.append(cli.main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
sys.setprofile(None)
package = os.path.dirname(os.path.abspath(thetaforge.__file__))
names = sorted({"%s:%s" % (os.path.basename(c.co_filename)[:-3],
                           c.co_qualname)
                for c in entered
                if not c.co_name.startswith("<")
                and os.path.dirname(os.path.abspath(c.co_filename))
                == package})
print(json.dumps({"codes": codes, "entered": names}))
"""


def defined_functions():
    """module:qualname of every def in the package, from its source."""
    names = set()

    def walk(code, module):
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                if not const.co_name.startswith("<"):   # lambda, listcomp
                    names.add("%s:%s" % (module, const.co_qualname))
                walk(const, module)

    for entry in sorted(os.listdir(PACKAGE)):
        if entry.endswith(".py"):
            path = os.path.join(PACKAGE, entry)
            with open(path, encoding="utf-8") as fh:
                walk(compile(fh.read(), path, "exec"), entry[:-3])
    return names


def spanned():
    return {"%s:%s" % (module, attr) for module, attr, _ in traced.SPANNED}


def leaf_subcommands(parser, prefix=()):
    """The argv prefix of every leaf of the subcommand tree."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from leaf_subcommands(sub, prefix + (name,))
            return
    yield prefix


def test_allowlist_gives_a_reason_of_one_of_the_kinds():
    for name, reason in ALLOWLIST.items():
        assert reason.startswith(KINDS), name
        if reason.startswith("dunder: "):
            assert name.rsplit(".", 1)[-1].startswith("__"), name
    assert not spanned() & set(ALLOWLIST)


def test_every_leaf_subcommand_runs_in_the_guard():
    ran = {tuple(argv) for argv, code in COMMANDS if code == 0}
    missing = [" ".join(leaf)
               for leaf in leaf_subcommands(cli.build_parser())
               if not any(argv[:len(leaf)] == leaf for argv in ran)]
    assert not missing, "leaf subcommands the guard never runs: %s" % missing


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="reads code objects' co_qualname")
def test_every_function_is_entered_or_allowlisted(tmp_path):
    paths = {}
    for name, text in FILES.items():
        paths[name] = str(tmp_path / name)
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(text)
    argvs = [[arg.format(**paths) for arg in argv] for argv, _ in COMMANDS]
    out = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argvs)],
                         capture_output=True, text=True, check=True).stdout
    report = json.loads(out)
    assert report["codes"] == [code for _, code in COMMANDS]
    entered = set(report["entered"])
    defined = defined_functions()
    assert entered <= defined
    allowed = set(ALLOWLIST)
    assert not sorted(defined - entered - allowed - spanned()), \
        "never entered"
    assert not sorted(allowed & entered), "allowlisted but entered"
    assert not sorted(allowed - defined), "allowlisted but not defined"
