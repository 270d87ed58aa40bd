"""poolattn command-line driver.

Subcommands: flops, bench, equivalence, gradcheck, train-demo, coverage,
attn. Reports are UTF-8 JSON, newline-terminated, written to stdout and
optionally mirrored to --out. Exit codes: 0 success, 1 verification
failure (a report whose `all_passed` is false), 2 usage/format error, 3
resource limit exceeded; each error class in `errors` carries its own, an
OSError on an input or output path exits 2, and a MemoryError that escapes a
subcommand exits 3.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import errors, harness, ops, threads
from .attention import CpaMode, SpaMode
from .errors import EXIT_OK, EXIT_RESOURCE, EXIT_USAGE, EXIT_VERIFY
from .pooling import parse_spec
from .version import __version__


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2) + "\n"
    sys.stdout.write(text)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _spatial(args, parser: argparse.ArgumentParser) -> tuple[int, int]:
    if args.hw is not None and args.height is None and args.width is None:
        return args.hw, args.hw
    if args.hw is None and args.height is not None and args.width is not None:
        return args.height, args.width
    parser.error("provide --hw or both --height and --width, not --hw with either")


def _at_least(minimum: int):
    """An argparse type for integers >= minimum; anything else exits 2 with a message."""
    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {value}")
        return value
    return integer


_positive = _at_least(1)


def _finite_float(text: str) -> float:
    """An argparse type for finite floats of any sign; anything else exits 2 with a
    message."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {value}")
    return value


def _positive_float(text: str) -> float:
    """An argparse type for finite floats > 0; anything else exits 2 with a message."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {value}")
    return value


def integers(text: str) -> list[int]:
    """An argparse type for a comma list of integers >= 1 (named for its error message)."""
    return [_positive(s) for s in text.split(",")]


def _add_shape_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--c", type=_positive, default=64, help="input channels (default 64)")
    p.add_argument("--chat", type=_positive, default=None,
                   help="query/key channels (default: same as --c)")
    p.add_argument("--hw", type=_positive, default=None, help="square spatial size")
    p.add_argument("--height", type=_positive, default=None)
    p.add_argument("--width", type=_positive, default=None)
    p.add_argument("--spec-k", default="paper-even",
                   help="key pyramid: preset name or comma list (default paper-even)")
    p.add_argument("--spec-v", default="paper-odd",
                   help="value pyramid: preset name or comma list (default paper-odd)")
    p.add_argument("--dtype", choices=list(ops.DTYPES), default="f32")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="poolattn",
                                     description="pooled-attention verification harness")
    parser.add_argument("--version", action="version", version=f"poolattn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("flops", help="closed-form cost reports and the reduction ratio")
    _add_shape_flags(p)
    p.add_argument("--include-softmax", action="store_true",
                   help="kept in the report's config; changes no number (the ratio is N/T)")
    p.add_argument("--out", default=None, help="also write the JSON report here")

    p = sub.add_parser("bench", help="wall-time comparison of baseline vs pooled attention")
    _add_shape_flags(p)
    p.add_argument("--reps", type=int, default=5, help="timed repetitions (minimum 5)")
    p.add_argument("--warmup", type=_at_least(0), default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mem-limit", type=_positive, default=None,
                   help="abort (exit 3) if the baseline map exceeds this many bytes")
    p.add_argument("--out", default=None)

    p = sub.add_parser("equivalence",
                       help="full-resolution oracle and gate-closed identity suites")
    p.add_argument("--seeds", type=_positive, default=50)
    p.add_argument("--sizes", type=integers, default="3,5",
                   help="comma list of square sizes")
    p.add_argument("--channels", type=integers, default="2,4",
                   help="comma list, one channel count per --sizes entry")
    p.add_argument("--tol", type=_positive_float, default=1e-12)
    p.add_argument("--out", default=None)

    p = sub.add_parser("gradcheck", help="finite-difference checks of the backward passes")
    p.add_argument("--kind", required=True,
                   choices=["nonlocal", "spa", "cpa", "network", "all"])
    p.add_argument("--c", type=_positive, default=None, help="channels (default 4)")
    p.add_argument("--chat", type=_positive, default=None)
    p.add_argument("--hw", type=_positive, default=None, help="square map size (default 6)")
    p.add_argument("--spec", default=None,
                   help="spa/network pyramid sizes, comma list or preset (default 1,2)")
    p.add_argument("--spec-even", default=None,
                   help="even pyramid for mixed mode (the --spec list is then the odd one)")
    p.add_argument("--mode", default=None,
                   help="spa: only-odd/only-even/mixed; cpa: subtract/square")
    p.add_argument("--with-proj", action="store_true", help="cpa: include projections")
    p.add_argument("--size", type=_positive, default=None,
                   help="network: image size (default 8)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--h", type=_positive_float, default=1e-5, help="finite-difference step")
    p.add_argument("--tol", type=_positive_float, default=1e-4)
    p.add_argument("--out", default=None)

    p = sub.add_parser("train-demo", help="train the toy two-branch network")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--size", type=_positive, default=16)
    p.add_argument("--steps", type=_positive, default=300)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--poly-power", type=float, default=None,
                   help="enable poly lr decay with this power (paper value 0.9)")
    p.add_argument("--count", type=_positive, default=4, help="synthetic samples")
    p.add_argument("--batch", type=_positive, default=4)
    p.add_argument("--spa-mode", choices=[m.value for m in SpaMode], default="only-odd")
    p.add_argument("--spec", default=None, help="only-odd/only-even pyramid (default toy-odd)")
    p.add_argument("--cpa-mode", choices=[m.value for m in CpaMode], default="subtract")
    p.add_argument("--out", default=None)

    p = sub.add_parser("coverage", help="pyramid bin-boundary histograms")
    p.add_argument("--specs", required=True,
                   help="comma list of presets and/or size lists, "
                        "e.g. paper-even,paper-odd or 1,3,5")
    p.add_argument("--hw", type=_positive, required=True, help="spatial extent")
    p.add_argument("--out", default=None)

    p = sub.add_parser("attn", help="run one module on a DPT/JSON tensor file")
    p.add_argument("--input", required=True)
    p.add_argument("--module", required=True, choices=["nonlocal", "spa", "cpa"])
    p.add_argument("--out-tensor", required=True)
    p.add_argument("--out-attn", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--chat", type=_positive, default=None)
    p.add_argument("--spec-k", default=None, help="spa key pyramid (default paper-even)")
    p.add_argument("--spec-v", default=None, help="spa value pyramid (default paper-odd)")
    p.add_argument("--cpa-mode", choices=[m.value for m in CpaMode], default=None)
    p.add_argument("--with-proj", action="store_true")
    p.add_argument("--lam", type=_finite_float, default=None,
                   help="spa/nonlocal gate, any finite value (default 1; 0 is the closed gate)")
    p.add_argument("--mu", type=_finite_float, default=None,
                   help="cpa gate, any finite value (default 1; 0 is the closed gate)")
    p.add_argument("--mem-limit", type=_positive, default=None,
                   help="abort (exit 3) before the forward if the module's attention map "
                        "exceeds this many bytes")
    return parser


def _parse_spec_groups(text: str) -> list:
    """Split a --specs value into specs: presets stand alone, digit runs group."""
    specs = []
    pending: list[str] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if token.lstrip("-").isdigit():
            pending.append(token)
        else:
            if pending:
                specs.append(parse_spec(",".join(pending)))
                pending = []
            specs.append(parse_spec(token))
    if pending:
        specs.append(parse_spec(",".join(pending)))
    if not specs:
        raise errors.ConfigurationError(f"--specs {text!r} names no pyramids")
    return specs


# Per subcommand, the flag that picks what runs, and the choices that read each optional
# flag; any other choice refuses it. A given flag is neither None nor False (0.0 is given).
_READERS = {
    "gradcheck": ("kind", {"c": ("nonlocal", "spa", "cpa"), "chat": ("nonlocal", "spa"),
                           "hw": ("nonlocal", "spa", "cpa"), "spec": ("spa", "network"),
                           "spec_even": ("spa",), "mode": ("spa", "cpa"),
                           "with_proj": ("cpa",), "size": ("network",)}),
    "attn": ("module", {"chat": ("nonlocal", "spa"), "lam": ("nonlocal", "spa"),
                        "spec_k": ("spa",), "spec_v": ("spa",), "cpa_mode": ("cpa",),
                        "with_proj": ("cpa",), "mu": ("cpa",)}),
}


def _run(args, parser: argparse.ArgumentParser) -> dict:
    """The subcommand's report; the stderr lines of its own are printed here."""
    selector, readers = _READERS.get(args.command, ("command", {}))
    for flag, choices in readers.items():
        value = getattr(args, flag)
        if value is not None and value is not False and getattr(args, selector) not in choices:
            raise errors.ConfigurationError(f"--{flag.replace('_', '-')} is not read by "
                                            f"--{selector} {getattr(args, selector)}")
    if args.command == "flops":
        h, w = _spatial(args, parser)
        report = harness.flops_report(args.c, args.chat or args.c, h, w,
                                      parse_spec(args.spec_k), parse_spec(args.spec_v),
                                      args.dtype, args.include_softmax)
        for warning in report["warnings"]:
            print(f"warning: {warning}", file=sys.stderr)
        return report

    if args.command == "bench":
        h, w = _spatial(args, parser)
        return harness.bench_report(args.c, args.chat or args.c, h, w,
                                    parse_spec(args.spec_k), parse_spec(args.spec_v),
                                    args.dtype, args.reps, args.warmup, args.seed,
                                    args.mem_limit)

    if args.command == "equivalence":
        report = harness.equivalence_report(args.seeds, args.sizes, args.channels, args.tol)
        if not report["all_passed"]:
            failing = next(c for c in report["cases"] if not c["passed"])
            print(f"equivalence failed: seed={failing['seed']} size={failing['size']} "
                  f"channels={failing['channels']} max_abs_diff={failing['max_abs_diff']}",
                  file=sys.stderr)
        return report

    if args.command == "gradcheck":
        config: dict = {}
        if args.kind in ("nonlocal", "spa", "cpa"):
            config = {"c": args.c or 4, "height": args.hw or 6, "width": args.hw or 6}
            if args.chat is not None:
                config["chat"] = args.chat
        if args.spec_even is not None and args.mode != "mixed":     # kind is spa here
            raise errors.ConfigurationError("--spec-even is the even pyramid of "
                                            "--kind spa --mode mixed only")
        if args.kind == "spa":
            spec = parse_spec(args.spec or "1,2")
            mode = args.mode or "only-odd"
            config["mode"] = mode
            if mode == "only-even":
                config["even"] = spec.sizes
            else:
                config["odd"] = spec.sizes
            if args.spec_even is not None:
                config["even"] = parse_spec(args.spec_even).sizes
        elif args.kind == "cpa":
            config["mode"] = args.mode or "subtract"
            config["with_proj"] = args.with_proj
        elif args.kind == "network":
            config = {"size": args.size or 8, "odd": parse_spec(args.spec or "1,2").sizes}
        return harness.gradcheck_report(args.kind, config, args.seed, args.h, args.tol)

    if args.command == "train-demo":
        return harness.train_demo_report(args.seed, args.size, args.steps, args.lr,
                                         args.momentum, args.poly_power, args.count,
                                         args.batch, args.spa_mode, args.spec, args.cpa_mode)

    if args.command == "coverage":
        return harness.coverage_report(_parse_spec_groups(args.specs), args.hw)

    # attn: the subparsers are required, so argparse has refused any other command
    return harness.attn_report(args.input, args.module, args.out_tensor, args.out_attn,
                               args.seed, args.chat, parse_spec(args.spec_k or "paper-even"),
                               parse_spec(args.spec_v or "paper-odd"),
                               args.cpa_mode or "subtract", args.with_proj,
                               1.0 if args.lam is None else args.lam,
                               1.0 if args.mu is None else args.mu, args.mem_limit)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cap = threads.thread_cap()  # validated here; applied at import in __init__
        if cap is not None and args.command == "bench":
            print(f"thread cap: {cap}", file=sys.stderr)
        report = _run(args, parser)
        _emit(report, getattr(args, "out", None))
        return EXIT_OK if report.get("all_passed", True) else EXIT_VERIFY
    except errors.PoolAttnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:        # an unreadable --input or unwritable --out*
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:    # an allocation no size check caught beforehand
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
