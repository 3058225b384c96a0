"""Command-line front end.

Verbs: construct (emit a weight-matrix basis as JSON), lattice (volume and
determinant figures), analyze (decodability classification), simulate
(error-rate campaign CSV), zoo (one-line summary of every shipped family).
All numbers are recomputed at invocation; nothing is cached or hardcoded.
Exit codes: 0 on success, 1 on validation errors, 2 on internal errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .codebook import REGISTRY, CodeDescriptor, build
from .decodability import bounds_check, classify
from .lattice import WeightBasis, lattice_profile
from .simulate import Alphabet, default_config, pam, run_campaign

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(message)


class _VerbParser(_Parser):
    """A verb's parser: it rejects the arguments it does not read itself,
    so the error shows that verb's usage."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _parse_scalar(text: str):
    """Numeric flag values: real, complex ('i' or 'j' notation), or a/b."""
    s = text.strip().replace(" ", "")
    try:
        if "/" in s:
            num, _, den = s.partition("/")
            return float(num) / float(den)
        value = complex(s.replace("i", "j"))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse numeric value '{text}'") from None
    return value.real if value.imag == 0 else value


def _parse_float_list(text: str):
    try:
        return tuple(float(x) for x in text.split(",") if x.strip() != "")
    except ValueError:
        raise ValueError(f"cannot parse list of numbers '{text}'") from None


def _parse_alphabet(text: str) -> Alphabet:
    if "," in text:
        return Alphabet(tuple(float(x) for x in text.split(",")))
    return pam(float(text))


def _write_output(text: str, path):
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write output to '{path}': {exc.strerror}") from None


def _load_basis(source: str) -> WeightBasis:
    """A registered family name, else a path to a basis JSON file (a file
    named like a family does not shadow it)."""
    if source in REGISTRY:
        return build(source)
    try:
        with open(source, "r", encoding="utf-8") as handle:
            return WeightBasis.from_json(handle.read())
    except FileNotFoundError:
        raise ValueError(
            f"'{source}' is neither a basis JSON file nor a known family; "
            f"known families: {sorted(REGISTRY)}"
        ) from None
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"cannot read basis from '{source}': {exc}") from None


def _collect_params(args) -> dict:
    params = {}
    if args.gamma is not None:
        params["gamma"] = _parse_scalar(args.gamma)
    if args.M is not None:
        params["M"] = args.M
    return params


def _cmd_construct(args) -> int:
    basis = build(CodeDescriptor(args.family, _collect_params(args)))
    _write_output(basis.to_json() + "\n", args.output)
    return 0


def _cmd_lattice(args) -> int:
    basis = _load_basis(args.source)
    prof = lattice_profile(basis, det_search_bound=args.bound)
    data = {
        "name": basis.name,
        "nt": basis.n_t,
        "T": basis.T,
        "k": basis.k,
        "volume": prof.volume,
        "min_det_est": prof.min_det_est,
        "delta": prof.delta,
        "eta": prof.eta,
        "gram": [[float(v) for v in row] for row in prof.gram],
    }
    _write_output(json.dumps(data, indent=2) + "\n", args.output)
    return 0


def _profile_json(basis: WeightBasis, seed: int) -> dict:
    prof = classify(basis, seed=seed)
    full_rate = basis.n_t == basis.T and basis.rank == 2 * basis.n_t * basis.T
    data = prof.to_json_dict()
    data["bounds_violations"] = bounds_check(prof, basis.n_t, full_rate=full_rate)
    return data


def _cmd_analyze(args) -> int:
    basis = _load_basis(args.source)
    data = _profile_json(basis, args.seed)
    _write_output(json.dumps(data, indent=2) + "\n", args.output)
    return 0


def _cmd_simulate(args) -> int:
    basis = _load_basis(args.source)
    alphabet = _parse_alphabet(args.alphabet)
    cfg = default_config(
        basis,
        _parse_float_list(args.snr),
        trials=args.trials,
        seed=args.seed,
        n_r=args.n_r,
    )
    campaign = run_campaign(basis, alphabet, cfg, decoder=args.decoder)
    _write_output(campaign.to_csv(), args.output)
    return 0


def _family_label(data: dict) -> str:
    family = data["family"]
    if family == "multi_group":
        return f"multi_group({len(data['groups'])})"
    if family == "conditional_multi_group":
        return "conditional"
    if family == "block_orthogonal":
        return "block_orthogonal({},{},{})".format(*data["bo_params"])
    return family


def _cmd_zoo(args) -> int:
    lines = []
    for name in REGISTRY:
        basis = build(name)
        data = _profile_json(basis, args.seed)
        lines.append(
            "{:<14} k={:<3} k'={:<3} {:<24} reduction={:.1f}%".format(
                name,
                basis.k,
                data["k_prime"],
                _family_label(data),
                data["reduction_pct"],
            )
        )
    _write_output("\n".join(lines) + "\n", args.output)
    return 0


def _add_common(sub):
    sub.add_argument("--output", default=None, help="write to a file instead of stdout")


def _add_classify(sub):
    """classify's argument, read by analyze and zoo."""
    sub.add_argument("--seed", type=int, default=0, help="random seed of the channel samples")


def build_parser() -> _Parser:
    parser = _Parser(prog="stlattice", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="verb", required=True, parser_class=_VerbParser)

    sub = subs.add_parser("construct", help="emit a code basis as JSON")
    sub.add_argument("family", help="registered family name")
    sub.add_argument("--gamma", default=None, help="non-norm scalar, e.g. 'i' or '-0.5'")
    sub.add_argument("--M", type=int, default=None, help="relay round count")
    _add_common(sub)
    sub.set_defaults(func=_cmd_construct)

    sub = subs.add_parser("lattice", help="volume and determinant figures")
    sub.add_argument("source", help="family name or basis JSON file")
    sub.add_argument("--bound", type=int, default=2, help="determinant search box bound")
    _add_common(sub)
    sub.set_defaults(func=_cmd_lattice)

    sub = subs.add_parser("analyze", help="decodability classification as JSON")
    sub.add_argument("source", help="family name or basis JSON file")
    _add_classify(sub)
    _add_common(sub)
    sub.set_defaults(func=_cmd_analyze)

    sub = subs.add_parser("simulate", help="error-rate campaign as CSV")
    sub.add_argument("source", help="family name or basis JSON file")
    sub.add_argument(
        "--snr",
        default="0,10,20",
        help="comma-separated SNR grid in dB; a list that starts with '-' "
        "needs the = form, --snr=-5,0",
    )
    sub.add_argument("--trials", type=int, default=100, help="trials per SNR point")
    sub.add_argument(
        "--alphabet",
        default="4",
        help="PAM size or comma-separated values; a list that starts with '-' "
        "needs the = form, --alphabet=-1,1",
    )
    sub.add_argument("--decoder", default="both", choices=("ml", "sphere", "both"))
    sub.add_argument("--n-r", type=int, default=None, help="receive antenna count")
    sub.add_argument("--seed", type=int, default=0, help="random seed of the campaign")
    _add_common(sub)
    sub.set_defaults(func=_cmd_simulate)

    sub = subs.add_parser("zoo", help="summary table of every shipped family")
    _add_classify(sub)
    _add_common(sub)
    sub.set_defaults(func=_cmd_zoo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
