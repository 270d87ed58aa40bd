import contextlib
import inspect
import io
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from referencing import Registry, Resource

import poolattn
from poolattn import cli, errors, harness
from poolattn.dpt import read_dpt, write_dpt
from poolattn.errors import ConfigurationError
from poolattn.rng import Rng

SCHEMA_DIR = Path(poolattn.__file__).parent / "schemas"


def _registry():
    resources = []
    for p in SCHEMA_DIR.glob("*.json"):
        schema = json.loads(p.read_text())
        resources.append((schema["$id"], Resource.from_contents(schema)))
    return Registry().with_resources(resources)


REGISTRY = _registry()


def validate(kind: str, report: dict) -> None:
    schema = json.loads((SCHEMA_DIR / f"{kind}.json").read_text())
    jsonschema.Draft7Validator(schema, registry=REGISTRY).validate(report)


def run_cli(*args, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run([sys.executable, "-m", "poolattn", *args],
                          capture_output=True, text=True, env=full_env)


def test_flops_headline_numbers():
    out = run_cli("flops", "--hw", "96", "--spec-k", "paper-even", "--spec-v", "paper-odd")
    assert out.returncode == 0
    report = json.loads(out.stdout)
    validate("flops", report)
    assert report["reduction_ratio"] == pytest.approx(28.356923, abs=1e-3)
    assert report["nonlocal"]["params"] == report["spa"]["params"]
    assert report["warnings"] == []
    assert out.stdout.endswith("\n")
    # The pyramid label rides on the flops report's spa entry, as its last key.
    assert report["spa"]["spec_names"] == ["paper-even", "paper-odd"]
    assert list(report["spa"])[-1] == "spec_names" and "spec_names" not in report["nonlocal"]


def test_flops_degenerate_size_warns():
    out = run_cli("flops", "--hw", "1")
    assert out.returncode == 0
    report = json.loads(out.stdout)
    validate("flops", report)
    assert report["reduction_ratio"] == pytest.approx(1 / 325, rel=1e-9)
    assert any("T=325" in w for w in report["warnings"])
    assert "warning" in out.stderr


def test_flops_include_softmax_ratio_unchanged():
    # Both softmax terms scale with their own map sizes, so the flag is value-neutral.
    base = json.loads(run_cli("flops", "--hw", "32").stdout)
    with_soft = json.loads(run_cli("flops", "--hw", "32", "--include-softmax").stdout)
    assert base["reduction_ratio"] == pytest.approx(with_soft["reduction_ratio"], rel=1e-12)
    assert with_soft["config"]["include_softmax"] is True


def test_flops_missing_required_flag_exits_2():
    out = run_cli("flops")
    assert out.returncode == 2


def test_unknown_spec_exits_2():
    out = run_cli("flops", "--hw", "8", "--spec-k", "bogus-name")
    assert out.returncode == 2
    assert "bogus-name" in out.stderr


def test_flops_unpaired_pyramids_exit_2():
    out = run_cli("flops", "--hw", "8", "--spec-k", "1,2", "--spec-v", "1,3")
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == ("error: key/value pyramids must agree on anchor count: "
                          "(1, 2) gives 5, (1, 3) gives 10\n")


def test_bench_small_shape(tmp_path):
    out_file = tmp_path / "bench.json"
    out = run_cli("bench", "--hw", "16", "--c", "8", "--chat", "4",
                  "--spec-k", "1,2", "--spec-v", "1,2", "--reps", "5",
                  "--out", str(out_file))
    assert out.returncode == 0
    report = json.loads(out.stdout)
    validate("bench", report)
    assert json.loads(out_file.read_text()) == report
    assert report["peak_attn_map_bytes"]["nonlocal"] == 256 * 256 * 4
    assert report["peak_attn_map_bytes"]["spa"] == 5 * 256 * 4
    assert "attention map" in out.stderr


def test_bench_report_says_what_ran():
    out = run_cli("bench", "--hw", "4", "--c", "2", "--spec-k", "1,2", "--spec-v", "1,2")
    assert out.returncode == 0
    report = json.loads(out.stdout)
    validate("bench", report)
    env = report["env"]
    assert env["python"] == platform.python_version()
    assert env["numpy"] == np.__version__
    assert env["cpu_count"] == os.cpu_count()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert env["blas"] == {"name": blas["name"], "version": blas["version"]}


def test_bench_too_few_reps_exits_2():
    out = run_cli("bench", "--hw", "16", "--reps", "1")
    assert out.returncode == 2
    assert "5" in out.stderr


def test_bench_memory_limit_exits_3():
    out = run_cli("bench", "--hw", "96", "--mem-limit", "1000000")
    assert out.returncode == 3
    assert "339738624" in out.stderr


def test_equivalence_default_suite_passes():
    out = run_cli("equivalence", "--seeds", "5", "--sizes", "3,5", "--channels", "2,4")
    assert out.returncode == 0
    report = json.loads(out.stdout)
    validate("equivalence", report)
    assert report["all_passed"] and len(report["cases"]) == 10


def test_equivalence_injected_failure_detected(monkeypatch, capsys, tmp_path):
    real = harness.nonlocal_forward

    def off_by_1e9(x, proj, lam):
        out, attn = real(x, proj, lam)
        return out + 1e-9, attn

    monkeypatch.setattr(harness, "nonlocal_forward", off_by_1e9)
    mirror = tmp_path / "report.json"
    assert cli.main(["equivalence", "--seeds", "2", "--sizes", "3", "--channels", "2",
                     "--out", str(mirror)]) == 1
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    validate("equivalence", report)
    assert not report["all_passed"]
    assert "equivalence failed" in captured.err
    assert mirror.read_text(encoding="utf-8") == captured.out


@pytest.mark.parametrize("seeds,sizes,channels", [(0, [3], [2]), (-1, [3], [2]),
                                                   (1, [], [2]), (1, [3], []),
                                                   (1, [3], [2, 4])])
def test_equivalence_report_refuses_an_empty_suite(seeds, sizes, channels):
    with pytest.raises(ConfigurationError, match="equivalence needs"):
        harness.equivalence_report(seeds, sizes, channels)


def test_gradcheck_spa_passes():
    out = run_cli("gradcheck", "--kind", "spa", "--c", "4", "--hw", "6", "--spec", "1,2")
    assert out.returncode == 0
    report = json.loads(out.stdout)
    validate("gradcheck", report)
    assert report["all_passed"]
    assert {r["target"] for r in report["reports"]} == {"x", "w_q", "w_k", "w_v", "lam"}


def test_gradcheck_all_runs_the_manifest():
    out = run_cli("gradcheck", "--kind", "all")
    assert out.returncode == 0
    report = json.loads(out.stdout)
    validate("gradcheck", report)
    assert report["all_passed"]
    assert len({r["case"] for r in report["reports"]}) == 12


def test_gradcheck_unreachable_tolerance_exits_1(tmp_path):
    mirror = tmp_path / "report.json"
    out = run_cli("gradcheck", "--kind", "spa", "--c", "4", "--hw", "6",
                  "--spec", "1,2", "--tol", "1e-12", "--out", str(mirror))
    assert out.returncode == 1
    report = json.loads(out.stdout)
    validate("gradcheck", report)
    assert not report["all_passed"]
    assert mirror.read_text(encoding="utf-8") == out.stdout


def test_train_demo_rejects_zero_steps():
    out = run_cli("train-demo", "--steps", "0")
    assert out.returncode == 2
    assert "steps" in out.stderr


def test_train_demo_deterministic_bytes(tmp_path):
    args = ("train-demo", "--steps", "6", "--seed", "3", "--count", "2", "--batch", "2")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    report = json.loads(first.stdout)
    validate("train", report)
    assert len(report["loss_curve"]) == 6


def test_train_demo_mixed_mode_runs():
    out = run_cli("train-demo", "--steps", "4", "--spa-mode", "mixed",
                  "--count", "2", "--batch", "2")
    assert out.returncode == 0
    report = json.loads(out.stdout)
    validate("train", report)
    assert "matched" in report["config"]["spec"]


def test_attn_nonlocal_module(tmp_path):
    src = tmp_path / "in.dpt"
    write_dpt(src, Rng(12).fill_uniform((2, 4, 4), 1.0))
    out = run_cli("attn", "--input", str(src), "--module", "nonlocal", "--chat", "2",
                  "--out-tensor", str(tmp_path / "o.dpt"),
                  "--out-attn", str(tmp_path / "a.dpt"))
    assert out.returncode == 0
    report = json.loads(out.stdout)
    validate("attn", report)
    assert report["attn_shape"] == [16, 16]
    attn = read_dpt(tmp_path / "a.dpt")
    assert np.max(np.abs(attn.sum(axis=1) - 1.0)) < 1e-10


def test_coverage_union_comparison():
    out = run_cli("coverage", "--specs", "paper-even,paper-odd", "--hw", "96")
    assert out.returncode == 0
    report = json.loads(out.stdout)
    validate("coverage", report)
    by_name = {e["name"]: e for e in report["specs"]}
    assert by_name["paper-odd"]["interior_count"] == 30
    assert by_name["paper-even"]["interior_count"] == 23
    assert report["union_interior_count"] == 45
    assert all(c["union_exceeds"] for c in report["comparisons"])


def test_coverage_numeric_spec_grouping():
    out = run_cli("coverage", "--specs", "1,3,5", "--hw", "16")
    assert out.returncode == 0
    report = json.loads(out.stdout)
    assert report["specs"][0]["sizes"] == [1, 3, 5]


def test_attn_round_trip(tmp_path):
    src = tmp_path / "in.dpt"
    out_t = tmp_path / "out.dpt"
    out_a = tmp_path / "attn.dpt"
    x = Rng(9).fill_uniform((3, 6, 6), 1.0)
    write_dpt(src, x)
    out = run_cli("attn", "--input", str(src), "--module", "spa",
                  "--spec-k", "1,2", "--spec-v", "1,2",
                  "--out-tensor", str(out_t), "--out-attn", str(out_a))
    assert out.returncode == 0
    report = json.loads(out.stdout)
    validate("attn", report)
    assert report["attn_shape"] == [5, 36]
    attn = read_dpt(out_a)
    assert np.max(np.abs(attn.sum(axis=0) - 1.0)) < 1e-10
    assert read_dpt(out_t).shape == (3, 6, 6)


def test_attn_accepts_json_tensor(tmp_path):
    src = tmp_path / "in.json"
    src.write_text(json.dumps({"shape": [2, 1, 2], "data": [1, 2, 3, -1]}))
    out = run_cli("attn", "--input", str(src), "--module", "cpa",
                  "--out-tensor", str(tmp_path / "o.dpt"),
                  "--out-attn", str(tmp_path / "a.dpt"))
    assert out.returncode == 0
    assert json.loads(out.stdout)["attn_shape"] == [2, 2]


def test_attn_truncated_input_exits_2(tmp_path):
    src = tmp_path / "in.dpt"
    write_dpt(src, np.ones((2, 3, 3)))
    src.write_bytes(src.read_bytes()[:-4])
    out = run_cli("attn", "--input", str(src), "--module", "cpa",
                  "--out-tensor", str(tmp_path / "o.dpt"),
                  "--out-attn", str(tmp_path / "a.dpt"))
    assert out.returncode == 2
    assert "payload length mismatch" in out.stderr


def test_attn_input_of_another_rank_exits_2(tmp_path):
    src = tmp_path / "in.dpt"
    write_dpt(src, np.ones((2, 3)))
    out = run_cli("attn", "--input", str(src), "--module", "cpa",
                  "--out-tensor", str(tmp_path / "o.dpt"),
                  "--out-attn", str(tmp_path / "a.dpt"))
    assert out.returncode == 2
    assert out.stderr == "error: attn: expected rank-3, got shape (2, 3)\n"


@pytest.mark.parametrize("module,args,nbytes", [
    ("nonlocal", ["--chat", "2"], 16 * 16 * 8),
    ("spa", ["--spec-k", "1,2", "--spec-v", "1,2"], 5 * 16 * 8),
    ("cpa", [], 2 * 2 * 8),
])
def test_attn_memory_limit_exits_3_before_the_forward(tmp_path, module, args, nbytes):
    src = tmp_path / "in.dpt"
    write_dpt(src, Rng(13).fill_uniform((2, 4, 4), 1.0))
    out_t, out_a = tmp_path / "o.dpt", tmp_path / "a.dpt"
    common = ["attn", "--input", str(src), "--module", module, *args,
              "--out-tensor", str(out_t), "--out-attn", str(out_a)]
    over = run_cli(*common, "--mem-limit", str(nbytes - 1))
    assert over.returncode == 3
    assert f"{module} attention map needs {nbytes} bytes" in over.stderr
    assert not out_t.exists() and not out_a.exists()
    at_limit = run_cli(*common, "--mem-limit", str(nbytes))
    assert at_limit.returncode == 0, at_limit.stderr
    assert read_dpt(out_a).nbytes == nbytes


def _bad_inputs(tmp_path):
    huge = tmp_path / "huge-dims.dpt"    # 65536^4 elements: a wrapping product would read 0
    huge.write_bytes(b"DPTENSOR" + bytes([1, 0, 4]) + (65536).to_bytes(4, "little") * 4)
    nan = tmp_path / "nan.dpt"
    x = np.ones((2, 3, 3))
    x[1, 2, 0] = np.nan
    write_dpt(nan, x)
    strings = tmp_path / "strings.json"
    strings.write_text(json.dumps({"shape": [1, 1, 2], "data": ["a", "b"]}))
    negative = tmp_path / "negative-dims.json"
    negative.write_text(json.dumps({"shape": [-1, 1, -2], "data": [1.0, 2.0]}))
    files = {"huge-dims": huge, "nan": nan, "strings": strings, "negative-dims": negative}
    # Each would read as a 1 x 1 x 2 or 2 x 1 x 2 map if its values were cast.
    for case, shape, data in (("string-shape", "112", [1, 2]),
                              ("float-shape", [2.7, 1, 2], [1, 2, 3, 4]),
                              ("bool-shape", [True, 1, 2], [1, 2]),
                              ("bool-data", [1, 1, 2], [True, False]),
                              ("mixed-bool-data", [1, 1, 2], [True, 1]),
                              ("numeric-string-data", [1, 1, 2], ["1", "2.5"]),
                              ("huge-int-data", [1, 1, 2], [1, 10 ** 400])):
        files[case] = tmp_path / f"{case}.json"
        files[case].write_text(json.dumps({"shape": shape, "data": data}))
    files["f32-overflow-data"] = tmp_path / "f32-overflow-data.json"   # finite, beyond f32
    files["f32-overflow-data"].write_text(json.dumps({"shape": [1, 1, 1], "data": [1e39],
                                                      "dtype": "f32"}))
    files["f64-overflow-data"] = tmp_path / "f64-overflow-data.json"   # finite, beyond f64
    files["f64-overflow-data"].write_text('{"shape": [1, 1, 1], "data": [1e309], "dtype": "f64"}')
    return files


@pytest.mark.parametrize("case", ["huge-dims", "nan", "strings", "negative-dims",
                                  "string-shape", "float-shape", "bool-shape", "bool-data",
                                  "mixed-bool-data", "numeric-string-data", "huge-int-data",
                                  "f32-overflow-data", "f64-overflow-data"])
def test_attn_bad_input_exits_2(tmp_path, case):
    src = _bad_inputs(tmp_path)[case]
    out = run_cli("attn", "--input", str(src), "--module", "spa", "--spec-k", "1",
                  "--spec-v", "1", "--out-tensor", str(tmp_path / "o.dpt"),
                  "--out-attn", str(tmp_path / "a.dpt"))
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("error: ") and str(src) in out.stderr
    assert "Traceback" not in out.stderr
    if case.endswith("-overflow-data"):
        assert out.stderr.count("\n") == 1 and f"overflows {case[:3]}" in out.stderr


def _attn_on_bytes(tmp_dir, raw: bytes) -> tuple[int, str]:
    """`poolattn attn` in process on a file holding `raw`: (exit code, stderr)."""
    src = tmp_dir / "fuzz.dpt"
    src.write_bytes(raw)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["attn", "--input", str(src), "--module", "spa", "--spec-k", "1",
                         "--spec-v", "1", "--out-tensor", str(tmp_dir / "o.dpt"),
                         "--out-attn", str(tmp_dir / "a.dpt")])
    return code, err.getvalue()


def _valid_dpt(tmp_dir, dtype) -> bytes:
    path = tmp_dir / "valid.dpt"
    write_dpt(path, Rng(3).fill_uniform((2, 3, 3), 1.0, dtype))
    return path.read_bytes()


def _assert_rejected(code, err):
    assert code == 2, err
    assert err.startswith("error: ") and "Traceback" not in err


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([np.float32, np.float64]), st.data())
def test_attn_reader_fuzz_truncated_and_header_bit_flips(tmp_path_factory, dtype, data):
    # Every strict prefix of a valid file, and every one-bit flip in its 23-byte header
    # (magic, version, dtype, rank, three dims), is a bad file: exit 2, no traceback.
    tmp_dir = tmp_path_factory.getbasetemp()
    raw = _valid_dpt(tmp_dir, dtype)
    assert _attn_on_bytes(tmp_dir, raw)[0] == 0
    cut = data.draw(st.integers(0, len(raw) - 1), label="cut")
    _assert_rejected(*_attn_on_bytes(tmp_dir, raw[:cut]))
    bit = data.draw(st.integers(0, 8 * (11 + 4 * 3) - 1), label="bit")
    flipped = bytearray(raw)
    flipped[bit // 8] ^= 1 << (bit % 8)
    _assert_rejected(*_attn_on_bytes(tmp_dir, bytes(flipped)))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([0, 1]), st.lists(st.integers(1, 2**32 - 1), min_size=1, max_size=4),
       st.integers(0, 64))
def test_attn_reader_fuzz_oversized_header(tmp_path_factory, code, dims, payload):
    # A header whose dims claim more (or other) values than the payload holds, up to
    # (2^32 - 1)^4 of them, is rejected before anything that large is allocated.
    itemsize = 4 if code == 0 else 8
    assume(math.prod(dims) * itemsize != payload)
    raw = (b"DPTENSOR" + bytes([1, code, len(dims)])
           + b"".join(d.to_bytes(4, "little") for d in dims) + bytes(payload))
    _assert_rejected(*_attn_on_bytes(tmp_path_factory.getbasetemp(), raw))


def test_invalid_thread_cap_exits_2():
    out = run_cli("flops", "--hw", "8", env={"POOLATTN_THREADS": "zero"})
    assert out.returncode == 2
    assert "POOLATTN_THREADS" in out.stderr


def test_thread_cap_accepted():
    out = run_cli("flops", "--hw", "8", env={"POOLATTN_THREADS": "1"})
    assert out.returncode == 0


def test_long_runs_print_the_same_bytes_at_one_and_two_threads():
    # Results do not depend on thread timing: BLAS at one thread or two, the same stdout.
    for args in (("train-demo",), ("gradcheck", "--kind", "all")):
        runs = [run_cli(*args, env={"POOLATTN_THREADS": n}) for n in ("1", "2")]
        assert [run.returncode for run in runs] == [0, 0], runs[1].stderr
        assert runs[0].stdout and runs[0].stdout == runs[1].stdout, args


_BENCH_WITH_BLAS_ENV = (
    "import os, sys\n"
    "from poolattn import cli\n"
    "print('OPENBLAS_NUM_THREADS=' + os.environ['OPENBLAS_NUM_THREADS'], file=sys.stderr)\n"
    "sys.exit(cli.main(['bench', '--hw', '4', '--c', '2', '--spec-k', '1,2',\n"
    "                   '--spec-v', '1,2', '--warmup', '0']))\n"
)


@pytest.mark.parametrize("raw", ["2", "+2", " 2", "2 ", "0", "abc", "\u00b2"])
def test_thread_cap_is_applied_and_reported_or_rejected(raw):
    out = subprocess.run([sys.executable, "-c", _BENCH_WITH_BLAS_ENV], capture_output=True,
                         text=True, env={**os.environ, "POOLATTN_THREADS": raw,
                                         "OPENBLAS_NUM_THREADS": "7"})
    if out.returncode == 0:
        threads = json.loads(out.stdout)["config"]["threads"]
        assert f"OPENBLAS_NUM_THREADS={threads}\n" in out.stderr
    else:
        assert out.returncode == 2, out.stderr
        assert "OPENBLAS_NUM_THREADS=7\n" in out.stderr
        assert "error: POOLATTN_THREADS" in out.stderr
    assert (out.returncode == 0) == (raw == "2")


@pytest.mark.parametrize("flag,args", [
    ("--c", ["flops", "--c", "0", "--hw", "8"]),
    ("--hw", ["flops", "--hw", "0"]),
    ("--chat", ["flops", "--chat", "0", "--hw", "8"]),
    ("--c", ["bench", "--c", "0", "--hw", "8"]),
    ("--warmup", ["bench", "--warmup", "-1", "--hw", "4", "--c", "2", "--spec-k", "1,2",
                  "--spec-v", "1,2"]),
    ("--channels", ["equivalence", "--seeds", "1", "--channels", "2,0"]),
    ("--seeds", ["equivalence", "--seeds", "0"]),
    ("--mem-limit", ["bench", "--hw", "4", "--c", "2", "--mem-limit", "0"]),
    ("--mem-limit", ["bench", "--hw", "4", "--c", "2", "--mem-limit", "-5"]),
    ("--mem-limit", ["attn", "--input", "x.dpt", "--module", "cpa", "--out-tensor", "o.dpt",
                     "--out-attn", "a.dpt", "--mem-limit", "0"]),
    ("--mem-limit", ["attn", "--input", "x.dpt", "--module", "cpa", "--out-tensor", "o.dpt",
                     "--out-attn", "a.dpt", "--mem-limit", "-5"]),
    ("--size", ["train-demo", "--size", "0"]),
    ("--count", ["train-demo", "--count", "0"]),
    ("--batch", ["train-demo", "--batch", "-1"]),
    ("--size", ["gradcheck", "--kind", "network", "--size", "0"]),
    ("--hw", ["coverage", "--specs", "1,2", "--hw", "0"]),
    ("--hw", ["coverage", "--specs", "1,2", "--hw", "-4"]),
])
def test_bad_integer_flag_exits_2(flag, args, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}:" in err and "Traceback" not in err


@pytest.mark.parametrize("args", [
    ["flops", "--hw", "8", "--height", "4", "--width", "6"],
    ["flops", "--hw", "8", "--height", "4"],
    ["bench", "--hw", "8", "--width", "6"],
    ["flops", "--height", "4"],
])
def test_hw_and_height_width_are_one_or_the_other(args, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert all(flag in err for flag in ("--hw", "--height", "--width"))
    assert "Traceback" not in err


@pytest.mark.parametrize("flag,args", [
    ("--tol", ["equivalence", "--seeds", "1", "--tol", "0"]),
    ("--tol", ["equivalence", "--seeds", "1", "--tol", "-1"]),
    ("--tol", ["equivalence", "--seeds", "1", "--tol", "nan"]),
    ("--tol", ["gradcheck", "--kind", "cpa", "--tol", "-1"]),
    ("--tol", ["gradcheck", "--kind", "cpa", "--tol", "0"]),
    ("--h", ["gradcheck", "--kind", "cpa", "--h", "0"]),
    ("--h", ["gradcheck", "--kind", "cpa", "--h", "-0.001"]),
    ("--h", ["gradcheck", "--kind", "cpa", "--h", "inf"]),
    ("--lam", ["attn", "--input", "x.dpt", "--module", "spa", "--out-tensor", "o.dpt",
               "--out-attn", "a.dpt", "--lam", "nan"]),
    ("--mu", ["attn", "--input", "x.dpt", "--module", "cpa", "--out-tensor", "o.dpt",
              "--out-attn", "a.dpt", "--mu", "inf"]),
])
def test_bad_float_flag_exits_2(flag, args, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}:" in err and "Traceback" not in err


def test_attn_gates_take_any_finite_value():
    # A gate of 0 is closed, and either sign is a valid gate.
    args = cli.build_parser().parse_args(
        ["attn", "--input", "x.dpt", "--module", "cpa", "--out-tensor", "o.dpt",
         "--out-attn", "a.dpt", "--lam", "-0.5", "--mu", "0"])
    assert (args.lam, args.mu) == (-0.5, 0.0)


def _former_tracebacks(tmp_path):
    """Invocations that once ended in a Python traceback: (args, exit code, what stderr
    names)."""
    src = tmp_path / "in.dpt"
    write_dpt(src, Rng(14).fill_uniform((2, 4, 4), 1.0))
    a_file = tmp_path / "plain.txt"
    a_file.write_text("")
    list_dtype = tmp_path / "list-dtype.json"
    list_dtype.write_text(json.dumps({"shape": [1, 1, 2], "data": [1, 2], "dtype": ["f32"]}))
    attn = ["attn", "--module", "cpa", "--out-attn", str(tmp_path / "a.dpt")]
    return {
        "gradcheck-h-overflow": (["gradcheck", "--kind", "cpa", "--h", "1e300"], 1,
                                 "non-finite"),
        "flops-out-dir": (["flops", "--hw", "8", "--out", str(tmp_path)], 2, "directory"),
        "flops-out-under-file": (["flops", "--hw", "8", "--out", str(a_file / "x.json")], 2,
                                 "Not a directory"),
        "attn-input-dir": ([*attn, "--input", str(tmp_path),
                            "--out-tensor", str(tmp_path / "o.dpt")], 2, "directory"),
        "attn-out-tensor-dir": ([*attn, "--input", str(src), "--out-tensor", str(tmp_path)],
                                2, "directory"),
        "attn-json-list-dtype": ([*attn, "--input", str(list_dtype),
                                  "--out-tensor", str(tmp_path / "o.dpt")], 2,
                                 "dtype must be 'f32' or 'f64'"),
        "gradcheck-spa-bad-mode": (["gradcheck", "--kind", "spa", "--mode", "bogus"], 2,
                                   "only-odd, only-even, mixed, got 'bogus'"),
        "gradcheck-cpa-spa-mode": (["gradcheck", "--kind", "cpa", "--mode", "only-odd"], 2,
                                   "subtract, square, got 'only-odd'"),
        "train-lr-nan": (["train-demo", "--lr", "nan"], 2, "lr must be finite"),
        "train-lr-inf": (["train-demo", "--lr", "inf"], 2, "lr must be finite"),
        "train-poly-power-nan": (["train-demo", "--poly-power", "nan"], 2,
                                 "poly_power must be finite"),
        # The first image alone would be 71.1 PiB: numpy refuses it at once.
        "train-size-oversized": (["train-demo", "--steps", "1", "--size", "100000000"], 3,
                                 "Unable to allocate"),
    }


@pytest.mark.parametrize("case", ["gradcheck-h-overflow", "flops-out-dir",
                                  "flops-out-under-file", "attn-input-dir",
                                  "attn-out-tensor-dir", "attn-json-list-dtype",
                                  "gradcheck-spa-bad-mode",
                                  "gradcheck-cpa-spa-mode", "train-lr-nan", "train-lr-inf",
                                  "train-poly-power-nan", "train-size-oversized"])
def test_former_traceback_exits_with_its_code(tmp_path, case):
    args, code, names = _former_tracebacks(tmp_path)[case]
    out = run_cli(*args)
    assert out.returncode == code, out.stderr
    assert "error: " in out.stderr and names in out.stderr
    assert "Traceback" not in out.stderr


def test_train_demo_finite_overflowing_rate_diverges_with_exit_1():
    diverged = run_cli("train-demo", "--lr", "1e300")
    assert diverged.returncode == 1
    assert "non-finite loss at step 1" in diverged.stderr


_ERROR_CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
                  if issubclass(cls, errors.PoolAttnError)]


@pytest.mark.parametrize("cls", _ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_every_error_class_has_an_exit_code_main_returns(cls, monkeypatch, capsys):
    assert cls.exit_code in {1, 2, 3}

    def raising(args, parser):
        raise cls("boom")

    monkeypatch.setattr(cli, "_run", raising)
    assert cli.main(["flops", "--hw", "8"]) == cls.exit_code
    assert capsys.readouterr().err == "error: boom\n"


def test_memory_error_exits_3(monkeypatch, capsys):
    def raising(args, parser):
        raise MemoryError("Unable to allocate 1.0 PiB")

    monkeypatch.setattr(cli, "_run", raising)
    assert cli.main(["flops", "--hw", "8"]) == 3
    assert capsys.readouterr().err == "error: Unable to allocate 1.0 PiB\n"


def test_version_flag():
    out = run_cli("--version")
    assert out.returncode == 0
    assert poolattn.__version__ in out.stdout


def test_gradcheck_report_keeps_its_step_apart_from_the_map_size():
    out = run_cli("gradcheck", "--kind", "spa", "--c", "2", "--hw", "5", "--spec", "1,3",
                  "--h", "1e-6")
    assert out.returncode in (0, 1), out.stderr
    report = json.loads(out.stdout)
    validate("gradcheck", report)
    config = report["config"]
    assert (config["h"], config["height"], config["width"]) == (1e-6, 5, 5)


# The refusal comes before the input is read, so the input need not exist.
_ATTN = ["attn", "--input", "x.dpt", "--out-tensor", "o.dpt", "--out-attn", "a.dpt", "--module"]


@pytest.mark.parametrize("args, names", [
    (["train-demo", "--spa-mode", "mixed", "--spec", "1,2"], "takes no pyramid spec"),
    (["gradcheck", "--kind", "spa", "--spec-even", "1,2"], "--spec-even"),
    (["gradcheck", "--kind", "cpa", "--spec-even", "1,2"], "--spec-even"),
    (["gradcheck", "--kind", "nonlocal", "--with-proj"], "--with-proj"),
    (["gradcheck", "--kind", "nonlocal", "--mode", "square"], "--mode"),
    (["gradcheck", "--kind", "cpa", "--chat", "3"], "--chat"),
    (["gradcheck", "--kind", "cpa", "--spec", "9"], "--spec"),
    (["gradcheck", "--kind", "spa", "--size", "3"], "--size"),
    (["gradcheck", "--kind", "network", "--hw", "5"], "--hw"),
    (["gradcheck", "--kind", "network", "--mode", "mixed"], "--mode"),
    (["gradcheck", "--kind", "all", "--c", "3"], "--c"),
    (["gradcheck", "--kind", "all", "--spec", "1,2"], "--spec"),
    ([*_ATTN, "cpa", "--chat", "8"], "--chat is not read by --module cpa"),
    ([*_ATTN, "cpa", "--spec-k", "1,3,5"], "--spec-k is not read by --module cpa"),
    ([*_ATTN, "cpa", "--spec-v", "1,3,5"], "--spec-v is not read by --module cpa"),
    ([*_ATTN, "cpa", "--lam", "0"], "--lam is not read by --module cpa"),
    ([*_ATTN, "nonlocal", "--spec-k", "1,2"], "--spec-k is not read by --module nonlocal"),
    ([*_ATTN, "nonlocal", "--mu", "2"], "--mu is not read by --module nonlocal"),
    ([*_ATTN, "nonlocal", "--with-proj"], "--with-proj is not read by --module nonlocal"),
    ([*_ATTN, "spa", "--cpa-mode", "square"], "--cpa-mode is not read by --module spa"),
    ([*_ATTN, "spa", "--mu", "0"], "--mu is not read by --module spa"),
], ids=["train-demo-mixed-spec", "gradcheck-spec-even-without-mixed",
        "gradcheck-cpa-spec-even", "gradcheck-nonlocal-with-proj", "gradcheck-nonlocal-mode",
        "gradcheck-cpa-chat", "gradcheck-cpa-spec", "gradcheck-spa-size",
        "gradcheck-network-hw", "gradcheck-network-mode", "gradcheck-all-c",
        "gradcheck-all-spec", "attn-cpa-chat", "attn-cpa-spec-k", "attn-cpa-spec-v",
        "attn-cpa-lam-0", "attn-nonlocal-spec-k", "attn-nonlocal-mu", "attn-nonlocal-with-proj",
        "attn-spa-cpa-mode", "attn-spa-mu-0"])
def test_unused_pyramid_flag_exits_2(args, names):
    out = run_cli(*args)
    assert out.returncode == 2
    assert "error: " in out.stderr and names in out.stderr
    assert "Traceback" not in out.stderr and out.stdout == ""
