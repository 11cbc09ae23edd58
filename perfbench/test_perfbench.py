"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py

The last three tests run every workload traced, twice, and `verify all`
untraced, twice: about two and a half minutes on a 2-core machine.
"""

import json
import os
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import references  # noqa: E402
import run  # noqa: E402
import traced  # noqa: E402
import workloads  # noqa: E402


def test_benchmark_json_lists_the_metrics_and_workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(layers.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_references():
    assert references.e4(3) == [1, 240, 2160, 6720]
    assert references.delta(4) == [0, 1, -24, 252, -1472]
    assert references.golay_theta(4) == [1, 72, 194832, 16791264, 397928016]
    assert [references.hyperoctahedral_even_order(n) for n in (4, 5, 6)] \
        == [96, 960, 11520]


def test_numeric_inputs_are_seeded_and_parse():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from thetaforge.fpcode import read_code_file
    from thetaforge.hilbert_eval import parse_points_text

    def generate(seed):
        with tempfile.TemporaryDirectory() as tmp:
            codes, points_path, points, zs = workloads.numeric_inputs(seed,
                                                                      tmp)
            files = [open(path, encoding="utf-8").read()
                     for path, _ in codes]
            files.append(open(points_path, encoding="utf-8").read())
            parsed = [read_code_file(path) for path, _ in codes]
            parsed_points = parse_points_text(files[-1], workloads.P)
        return files, parsed, parsed_points, points, zs

    first = generate(7)
    assert first[0] == generate(7)[0]
    assert first[0] != generate(8)[0]
    files, codes, parsed_points, points, zs = first
    assert [len(c) for c in codes] == list(workloads.CODE_SIZES)
    assert all((c.p, c.n) == (5, 2) for c in codes)
    assert [p.values for p in parsed_points] == points
    assert min(z.imag for p in points for z in p) >= 1.0
    assert min(complex(z).imag for z in zs) >= 1.0


def test_resource_guard_kills_runaway_children():
    sleeper = [sys.executable, "-c", "import time; time.sleep(60)"]
    outcome = run.run_child(sleeper, subprocess.DEVNULL, 1)
    assert outcome.timed_out and outcome.wall_s < 10
    hog = [sys.executable, "-c", "bytearray(1 << 30)"]
    outcome = run.run_child(hog, subprocess.DEVNULL, 30,
                            address_space=256 << 20)
    assert outcome.returncode != 0 and not outcome.timed_out


def test_traced_functions_are_wrapped_in_every_namespace():
    script = (
        "import json, sys; sys.path[:0] = [%r, %r]\n"
        "import traced\n"
        "tracer = traced.Tracer()\n"
        "patched = traced.install(tracer)\n"
        "mods = traced._modules()\n"
        "left = ['%%s.%%s' %% (m, k) for m, mod in mods.items()\n"
        "        for k, v in vars(mod).items()\n"
        "        if any(v is o for o in tracer.originals.values())]\n"
        "print(json.dumps({'patched': patched, 'left': left}))\n"
        % (HERE, os.path.join(ROOT, "src")))
    out = subprocess.run([sys.executable, "-c", script], check=True,
                         capture_output=True, text=True, cwd=ROOT).stdout
    result = json.loads(out)
    assert result["left"] == []
    holders = {h for names in result["patched"].values() for h in names}
    for name in ("cli.count_by_norm", "cli.lattice_of_code",
                 "cli.theta_series", "hilbert_eval.enumerate_coset",
                 "hilbert_eval.standard_lattice", "voarep.count_by_norm",
                 "voarep.theta_series", "cli.clifford_verify_all",
                 "codelattice.code_predicates", "voarep.compose_enumerator"):
        assert name in holders, name
    for _, _, counter in traced.COUNTED:
        assert counter in result["patched"]


# Metrics each workload must reach (read above zero) in a traced pass.
REACHED = {
    "desk": tuple(name for name, _, _ in layers.PER_LAYER[:-1]),
    "numeric": tuple(name for name, _, _ in layers.PER_LAYER
                     if name.startswith("hilbert_eval.")) + (
        "codelattice.enum_calls", "codelattice.enum_s",
        "codelattice.enum_leaves", "codelattice.standard_lattice_hits",
        "fpcode.weight_enumerator_s"),
}
# Counts that must repeat exactly between runs of the same inputs.
EXACT = tuple(name for name, unit, _ in layers.PER_LAYER
              if unit in ("count", "norm", "coeff"))
# Layers a workload must not reach: numeric runs no basis reduction and no
# group closure.
ABSENT = {"numeric": ("codelattice.lll_s", "octower.is_perfect_s")}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_spans_reached_and_counts_repeat(workload, tmp_path):
    commands = workloads.WORKLOADS[workload](3, str(tmp_path))
    bench = run.Bench(commands, str(tmp_path), float("inf"))
    first, second = (layers.layer_metrics(bench.run_pass(traced=True)[2])
                     for _ in range(2))
    assert bench.failed == 0
    assert [n for n in REACHED[workload] if not first[n] > 0] == []
    assert [n for n in ABSENT.get(workload, ()) if first[n]] == []
    assert {n: first[n] for n in EXACT} == {n: second[n] for n in EXACT}
    if workload == "desk":
        assert first["codelattice.golay_max_gram_diag"] == 138
        assert first["codelattice.golay_max_abs_mu"] == 4


def test_desk_stdout_is_byte_identical_between_runs(tmp_path):
    argv = [sys.executable, "-m", "thetaforge.cli", "verify", "all",
            "--level", "desk"]
    outputs = []
    for i in range(2):
        path = tmp_path / ("out%d" % i)
        with open(path, "wb") as fh:
            assert run.run_child(argv, fh, 300).returncode == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]
    assert workloads.check_desk(json.loads(outputs[0])) == []
