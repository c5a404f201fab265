"""Command-line front door with JSON input/output and stable exit codes.

Exit codes: 0 pass/preserved, 1 suite failure, 2 usage or input error,
3 refuted.  Every run emits a human-readable summary on stdout (or the raw
JSON with --json) and can write the machine-readable report to --out.  The
report body is deterministic for fixed inputs and seed; only the wrapping
timestamp field varies between runs.  A report holding a NaN or an
infinity, which JSON cannot carry, exits 2 and writes nothing.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
from fractions import Fraction

from .errors import PsdMaskError
from .functions import Domain, Identity, admissible_family, function_from_json
from .linalg import _cell_to_complex, _within_cap, is_psd, matrix_from_json
from .patterns import classify_sequence, rule_from_json
from .verify import VerifyConfig, refute_scalar_outside_interval, verify_preservation
from .witnesses import (
    WITNESS_PSD_TOL,
    Witness,
    all_ones_witness,
    corner_extend,
    corner_extend_auto,
    duplicated_pair_gram,
    overlap_probe,
    pad_embed,
    rank_one_gram,
    tail_gram,
    tensor_blowup,
)

EXIT_OK = 0
EXIT_SUITE_FAIL = 1
EXIT_USAGE = 2
EXIT_REFUTED = 3


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_domain(args) -> Domain:
    if getattr(args, "domain", None):
        return Domain.from_json(_load_json(args.domain))
    return Domain.disc(1.0)


def _parse_complex(text: str, flag: str) -> complex:
    """A complex flag such as 0.3+0.4i or 2; any other text is a usage error naming the flag."""
    try:
        return complex(text.replace("i", "j").replace(" ", ""))
    except ValueError:
        raise PsdMaskError(f"--{flag} must be a complex number such as 0.3+0.4i, got {text!r}") from None


def _emit(body: dict, args, lines: list[str]) -> None:
    wrapped = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "report": body,
    }
    # checked once, before anything is written: a NaN or an infinity in the
    # report is a ValueError (exit 2), never a bare NaN in the output
    text = json.dumps(wrapped, sort_keys=True, allow_nan=False)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(wrapped, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if getattr(args, "json", False):
        print(text)
    else:
        for line in lines:
            print(line)


def _config_from(args) -> VerifyConfig:
    return VerifyConfig(
        max_n=args.max_n,
        samples_per_n=args.samples,
        seed=args.seed,
        tol=args.tol,
    )


def _cmd_classify(args) -> int:
    rule = rule_from_json(_load_json(args.rule))
    regime = classify_sequence(rule)
    family = admissible_family(regime, rule.flags.max_block_count)
    K = rule.flags.max_block_count
    body = {"rule": rule.name, "K": "inf" if K == math.inf else int(K)}
    body.update(family.to_json())
    lines = [f"rule {rule.name!r}: regime {regime}", f"admissible family: {family.description}"]
    if family.c_interval is not None:
        lines.append(f"c interval: [{family.c_interval[0]}, {family.c_interval[1]}]")
    if family.constraint is not None:
        lines.append(f"constraint: {family.constraint}")
    _emit(body, args, lines)
    return EXIT_OK


def _cmd_verify(args) -> int:
    rule = rule_from_json(_load_json(args.rule))
    f = function_from_json(_load_json(args.f))
    g = function_from_json(_load_json(args.g)) if args.g else Identity()
    domain = _load_domain(args)
    cfg = _config_from(args)
    verdict = verify_preservation(g, f, rule, domain, cfg)
    body = {"config": cfg.to_json(), "domain": domain.to_json(), **verdict.to_json()}
    lines = [f"outcome: {verdict.outcome} (checked {verdict.stats['checked']} inputs)"]
    if verdict.refuted:
        ce = verdict.counterexample
        lines.append(
            f"counterexample: {ce.family} at n={ce.n}, output min_eig={ce.min_eig:.6e}"
        )
    _emit(body, args, lines)
    return EXIT_REFUTED if verdict.refuted else EXIT_OK


def _cmd_refute(args) -> int:
    rule = rule_from_json(_load_json(args.rule))
    domain = _load_domain(args)
    c = Fraction(args.c)
    K = rule.flags.max_block_count
    if not math.isfinite(K):
        raise PsdMaskError("the rule must declare a finite max block count")
    verdict = refute_scalar_outside_interval(rule, int(K), c, domain, x=args.x)
    ce = verdict.counterexample
    body = {"c": str(c), "K": int(K), "domain": domain.to_json(), **verdict.to_json()}
    lines = [
        f"refuted f(z) = ({c}) z at n={ce.n}: principal eigenvalue {ce.min_eig:.6e}",
    ]
    _emit(body, args, lines)
    return EXIT_REFUTED


# each witness kind with the flags it cannot do without; the parser's choices are its keys
_WITNESS_NEEDS = {
    "all_ones": ("x", "n"),
    "rank_one": ("v",),
    "duplicated_pair": ("w", "z"),
    "overlap_probe": ("r", "z"),
    "tail_gram": ("w", "t"),
    "tensor_blowup": ("m", "matrix"),
    "pad": ("matrix", "n"),
    "corner": ("matrix",),
}


def _witness_from_args(args) -> Witness:
    """The witness the arguments name.  Its spectrum is reported, so a size
    above the eigensolver cap is refused before the matrix is built."""
    name = args.name
    for flag in _WITNESS_NEEDS[name]:
        if getattr(args, flag) is None:
            raise PsdMaskError(f"witness {name} needs --{flag}")
    domain = _load_domain(args)
    if name in ("all_ones", "pad"):
        _within_cap(args.n)
    if name == "all_ones":
        return all_ones_witness(args.x, args.n, domain)
    if name == "rank_one":
        try:
            v = json.loads(args.v)
        except ValueError:  # not JSON at all
            v = None
        if not isinstance(v, list):  # a number, a string or an object is no vector
            raise PsdMaskError(f"--v must be a JSON list of cells, got {args.v!r}")
        v = [_cell_to_complex(e) for e in v]  # a cell as in a matrix document
        _within_cap(len(v))
        return rank_one_gram(v, domain if args.domain else None)  # no default domain, as in the library
    if name == "duplicated_pair":
        return duplicated_pair_gram(_parse_complex(args.w, "w"), _parse_complex(args.z, "z"), domain)
    if name == "overlap_probe":
        return overlap_probe(args.r, _parse_complex(args.z, "z"), domain)
    if name == "tail_gram":
        return tail_gram(_parse_complex(args.w, "w"), args.t, domain)
    if name == "tensor_blowup":
        A = matrix_from_json(_load_json(args.matrix))
        _within_cap(args.m * len(A))
        return tensor_blowup(args.m, A)
    if name == "pad":
        M = pad_embed(matrix_from_json(_load_json(args.matrix)), args.n, domain=domain)
        return Witness(M, "pad_embed", {"N": args.n})
    if name == "corner":
        A = matrix_from_json(_load_json(args.matrix))
        _within_cap(len(A) + 1)
        if args.eps is not None:
            return Witness(corner_extend(A, args.eps, domain), "corner_extension", {"eps": args.eps})
        M, eps = corner_extend_auto(A, domain)
        return Witness(M, "corner_extension", {"eps": eps})


def _cmd_witness(args) -> int:
    wit = _witness_from_args(args)
    report = is_psd(wit.matrix, WITNESS_PSD_TOL)  # first: a size it refuses exits before the JSON body is formed
    body = wit.to_json()
    body["psd"] = report.to_json()
    lines = [
        f"witness {body['provenance']} ({body['matrix']['n']} x {body['matrix']['n']})",
        f"min_eig={report.min_eig:.6e}, max_eig={report.max_eig:.6e}, is_psd={report.is_psd}",
    ]
    _emit(body, args, lines)
    return EXIT_OK


def _cmd_suite(args) -> int:
    from .suite import format_suite_lines, run_theorem_suite  # imported by this command alone

    cfg = _config_from(args)
    report = run_theorem_suite(cfg)
    _emit(report, args, format_suite_lines(report))
    return EXIT_OK if report["all_passed"] else EXIT_SUITE_FAIL


def _add_output_flags(sp) -> None:
    sp.add_argument("--out", help="write the JSON report to this file")
    sp.add_argument("--json", action="store_true", help="print raw JSON instead of the summary")


def _add_config_flags(sp, defaults: VerifyConfig) -> None:
    sp.add_argument("--seed", type=int, default=defaults.seed)
    sp.add_argument("--max-n", dest="max_n", type=int, default=defaults.max_n)
    sp.add_argument("--samples", type=int, default=defaults.samples_per_n)
    sp.add_argument("--tol", type=float, default=defaults.tol)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psdmask",
        description="Block-masked entrywise operations on PSD matrices: classify, verify, refute.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = VerifyConfig()  # flag defaults read off the library's, so the two cannot drift apart

    sp = sub.add_parser("classify", help="classify a pattern rule and print its admissible family")
    sp.add_argument("--rule", required=True)
    _add_output_flags(sp)
    sp.set_defaults(handler=_cmd_classify)

    sp = sub.add_parser("verify", help="verify or refute preservation for (g, f, rule, domain)")
    sp.add_argument("--rule", required=True)
    sp.add_argument("--f", required=True)
    sp.add_argument("--g")
    sp.add_argument("--domain")
    _add_config_flags(sp, defaults)
    _add_output_flags(sp)
    sp.set_defaults(handler=_cmd_verify)

    sp = sub.add_parser("refute", help="refute a scalar multiple outside the admissible interval")
    sp.add_argument("--rule", required=True)
    sp.add_argument("--c", required=True, help="scalar, as a fraction like -11/20 or a decimal")
    sp.add_argument("--domain")
    sp.add_argument("--x", type=float, default=None)
    _add_output_flags(sp)
    sp.set_defaults(handler=_cmd_refute)

    sp = sub.add_parser("witness", help="construct a witness matrix and report its spectrum")
    sp.add_argument("name", choices=list(_WITNESS_NEEDS))
    sp.add_argument("--x", type=float)
    sp.add_argument("--n", type=int)
    sp.add_argument("--m", type=int)
    sp.add_argument("--w")
    sp.add_argument("--z")
    sp.add_argument("--r", type=float)
    sp.add_argument("--t", type=float)
    sp.add_argument("--eps", type=float)
    sp.add_argument("--v", help="vector as a JSON list; complex entries as [re, im] pairs")
    sp.add_argument("--matrix", help="matrix JSON file")
    sp.add_argument("--domain")
    _add_output_flags(sp)
    sp.set_defaults(handler=_cmd_witness)

    sp = sub.add_parser("suite", help="run the full acceptance suite")
    _add_config_flags(sp, defaults)
    _add_output_flags(sp)
    sp.set_defaults(handler=_cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.handler(args)
    except (PsdMaskError, ValueError, KeyError, TypeError, OSError,
            ArithmeticError, RecursionError) as exc:  # RecursionError: a JSON input nested too deeply
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
