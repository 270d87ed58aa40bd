"""Record what a fixed list of deterministic `poolattn` invocations print and write.

    python3 tools/cli_outputs.py <dir>

Runs each invocation with this checkout's `src` and writes, into `<dir>`,
`<name>.stdout`, `<name>.stderr` and `<name>.code` (the exit code), plus
`<name>.tensor.dpt` and `<name>.attn.dpt` for the `attn` runs. The `attn`
inputs are drawn from `poolattn.rng` into `<dir>/inputs`, as DPT files and
one JSON tensor. Every occurrence of
`<dir>` in the text outputs becomes `@DIR@`, so the runs of two checkouts
compare with `diff -r`:

    python3 tools/cli_outputs.py /tmp/before      # in the parent's checkout
    python3 tools/cli_outputs.py /tmp/after       # in the changed checkout
    diff -r /tmp/before /tmp/after

Each invocation passes only flags its subcommand, `--kind` or `--module` reads.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PLACEHOLDER = "@DIR@"

ATTN_MODULES = {
    "nonlocal": ["--chat", "4", "--lam", "0.5"],
    "spa": ["--spec-k", "1,2,5", "--spec-v", "1,2,3,4", "--lam", "0.5"],
    "cpa": ["--mu", "0.5"],
    "cpa-proj-square": ["--with-proj", "--cpa-mode", "square"],
}


def invocations(out: Path) -> dict[str, list[str]]:
    """Name -> argv after `poolattn`; the `attn` ones read `out / "inputs"`."""
    runs = {
        "flops-paper96": ["flops", "--hw", "96"],
        "flops-rect-f64": ["flops", "--height", "24", "--width", "40", "--c", "16",
                           "--chat", "8", "--spec-k", "1,2", "--spec-v", "1,2",
                           "--dtype", "f64", "--include-softmax"],
        "flops-warning": ["flops", "--hw", "4"],
        "coverage": ["coverage", "--specs", "paper-even,paper-odd,1,3,5", "--hw", "96"],
        "equivalence": ["equivalence"],
        "gradcheck-all": ["gradcheck", "--kind", "all"],
        **{f"gradcheck-{kind}": ["gradcheck", "--kind", kind]
           for kind in ("nonlocal", "spa", "cpa", "network")},
        "gradcheck-spa-mixed": ["gradcheck", "--kind", "spa", "--mode", "mixed", "--c", "2",
                                "--hw", "10", "--spec", "toy-odd-matched",
                                "--spec-even", "toy-even-matched"],
        "train-demo": ["train-demo"],
        "train-demo-mixed": ["train-demo", "--spa-mode", "mixed", "--steps", "5",
                             "--count", "2", "--batch", "2"],
        "train-demo-only-even": ["train-demo", "--spa-mode", "only-even", "--spec", "1,2,4",
                                 "--steps", "5", "--count", "2", "--batch", "2"],
        "train-demo-mixed-spec": ["train-demo", "--spa-mode", "mixed", "--spec", "1,2"],
    }
    for dtype in ("f32", "f64"):
        for module, flags in ATTN_MODULES.items():
            name = f"attn-{module}-{dtype}"
            runs[name] = ["attn", "--input", str(out / "inputs" / f"x-{dtype}.dpt"),
                          "--module", module.split("-")[0], *flags,
                          "--out-tensor", str(out / f"{name}.tensor.dpt"),
                          "--out-attn", str(out / f"{name}.attn.dpt")]
    runs["attn-spa-json-f32"] = ["attn", "--input", str(out / "inputs" / "x-f32.json"),
                                 "--module", "spa", *ATTN_MODULES["spa"],
                                 "--out-tensor", str(out / "attn-spa-json-f32.tensor.dpt"),
                                 "--out-attn", str(out / "attn-spa-json-f32.attn.dpt")]
    return runs


def write_inputs(folder: Path, env: dict) -> None:
    """One 8x20x20 DPT input per dtype and one 4x10x10 float32 JSON input, drawn with
    the package's own generator."""
    folder.mkdir(parents=True, exist_ok=True)
    script = ("import json, sys\n"
              "from poolattn.dpt import write_dpt\n"
              "from poolattn.rng import Rng\n"
              "for seed, dtype in ((1, 'float32'), (2, 'float64')):\n"
              "    x = Rng(seed).fill_uniform((8, 20, 20), 1.0, dtype)\n"
              "    write_dpt(f'{sys.argv[1]}/x-f{x.dtype.itemsize * 8}.dpt', x)\n"
              "x = Rng(3).fill_uniform((4, 10, 10), 1.0, 'float32')\n"
              "with open(f'{sys.argv[1]}/x-f32.json', 'w') as f:\n"
              "    json.dump({'shape': list(x.shape), 'data': x.reshape(-1).tolist(),\n"
              "               'dtype': 'f32'}, f)\n")
    subprocess.run([sys.executable, "-c", script, str(folder)], env=env, check=True)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    write_inputs(out / "inputs", env)
    for name, args in invocations(out).items():
        proc = subprocess.run([sys.executable, "-m", "poolattn", *args], env=env,
                              capture_output=True, text=True)
        for suffix, text in (("stdout", proc.stdout), ("stderr", proc.stderr),
                             ("code", f"{proc.returncode}\n")):
            (out / f"{name}.{suffix}").write_text(text.replace(str(out), PLACEHOLDER))
        print(f"{name}: exit {proc.returncode}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
