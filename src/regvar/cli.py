"""Command-line front end.

Conventions shared by every subcommand:

  * group parameters are passed as ``--rho``/``--sigma`` strings: "0", "inf"
    or a positive decimal;
  * numbers print with 15 significant digits, complex values as "re,im";
  * functions are either a registry name (one, x, square, sqrt, exp, log,
    inv, entropy, gauss, offset-sinc) or a path to a CSV table with header
    ``x,fx`` and strictly increasing positive abscissae;
  * exit codes: 0 success, 1 usage error, 2 data/domain error, 3 numeric
    non-convergence when ``--strict`` was requested;
  * a flag is ``-h`` or its name after ``--``, spelled in full; a literal
    ``--`` ends the flags, and every word after it is an operand.
"""
from __future__ import annotations

import importlib
import math
import os
import sys
import warnings
from typing import TYPE_CHECKING

from regvar.popa import INFINITY, ZERO, DomainError, PopaParam, PopaPoint, _is_member, _positive

if TYPE_CHECKING:
    from regvar.asymptotics import SampledFunction

__all__ = ["main", "CsvFormatError", "load_csv_function"]


class CsvFormatError(ValueError):
    """A function table failed to parse; message carries the line number."""


def _fmt(v: float) -> str:
    return format(float(v), ".15g")


def _fmt_bool(b: bool) -> str:
    return "true" if b else "false"


def _float(label: str, text: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise DomainError(f"{label} must be a number, got {text!r}") from exc


def _int(label: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise DomainError(f"{label} must be an integer, got {text!r}") from None


def _float_list(label: str, text: str) -> list[float]:
    items = [p for p in text.split(",") if p.strip() != ""]
    if not items:
        raise DomainError(f"{label} must be a comma-separated list of numbers")
    return [_float(label, p) for p in items]


def load_csv_function(path: str) -> SampledFunction:
    """Read an ``x,fx`` table; errors carry path and 1-based line numbers."""
    import csv

    from regvar.asymptotics import SampledFunction

    xs: list[float] = []
    vs: list[float] = []
    try:
        handle = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise CsvFormatError(f"{path}: cannot read: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        rows = ((reader.line_num, row) for row in reader if any(c.strip() for c in row))
        lineno, row = next(rows, (1, None))  # the header is the first non-blank row
        if row is None:
            raise CsvFormatError(f"{path}: line 1: missing 'x,fx' header")
        if (header := [c.strip() for c in row]) != ["x", "fx"]:
            raise CsvFormatError(f"{path}: line {lineno}: header must be 'x,fx', got {','.join(header)!r}")
        for lineno, row in rows:
            cells = [c.strip() for c in row]
            if len(cells) != 2:
                raise CsvFormatError(f"{path}: line {lineno}: expected 2 columns, got {len(cells)}")
            try:
                x, v = float(cells[0]), float(cells[1])
            except ValueError:
                raise CsvFormatError(f"{path}: line {lineno}: non-numeric entry {row!r}") from None
            if not (math.isfinite(x) and math.isfinite(v)):
                raise CsvFormatError(f"{path}: line {lineno}: entries must be finite")
            if xs and x <= xs[-1]:
                raise CsvFormatError(f"{path}: line {lineno}: x values must be strictly increasing")
            xs.append(x)
            vs.append(v)
    if len(xs) < 2:
        raise CsvFormatError(f"{path}: need at least 2 data rows")
    try:
        return SampledFunction(xs, vs)
    except ValueError as exc:
        raise CsvFormatError(f"{path}: {exc}") from exc


_REGISTRY = {
    "one": lambda x: 1.0,
    "x": lambda x: x,
    "square": lambda x: x * x,
    "sqrt": math.sqrt,
    "exp": math.exp,
    "log": math.log,
    "inv": lambda x: 1.0 / x,
    "entropy": lambda x: -x * math.log(x),
    "gauss": lambda x: math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi),
    "offset-sinc": lambda x: 2.0 + math.sin(x) / (1.0 + x),
}


def _resolve_function(text: str):
    """Registry name or CSV path -> callable."""
    if text in _REGISTRY:
        return _REGISTRY[text]
    if not os.path.exists(text):
        raise CsvFormatError(f"{text!r} is neither a registry function ({', '.join(sorted(_REGISTRY))}) nor a file")
    return load_csv_function(text)


def _zero_extend(f):
    """A table reads as 0 outside its range, so whole-line integrals may run past it."""
    if not hasattr(f, "x_max"):  # not a SampledFunction
        return f
    return lambda u: 0.0 if u < f.x_min or u > f.x_max else f(u)


def _spec(label: str, text: str):
    """``--truncation`` -> the QuadratureSpec of a transform; its command has loaded regvar.quadrature."""
    from regvar.quadrature import QuadratureSpec

    return QuadratureSpec(truncation=_float(label, text))


def _subadd_function(s: str, rho: PopaParam, sigma: PopaParam, kappa: float, gamma: float):
    from regvar.kernels import GoldieAux, KernelParams, goldie_integral, kernel_eval

    if s == "kappa-kernel":
        kp = KernelParams(rho, sigma, kappa)
        return lambda t: kernel_eval(kp, t)
    if s == "goldie-fstar":
        aux = GoldieAux(rho, gamma)
        return lambda u: goldie_integral(aux, u)
    return _resolve_function(s)


# ------------------------------------------------------------- handlers ----
# A handler takes its command's module (named in _COMMANDS, imported once main knows the command)
# and the converted values of its op's flags, and returns what the op prints (see _show).  Estimation
# handlers return a pair (text, every estimate converged), so that ``--strict`` can exit 3.


def _estimate_kernel(m, mode, f, phi, h, t, fit_rho, fit_sigma, **scheme):
    scheme = m.LimitScheme(**scheme)
    if mode == "karamata":
        results = m.estimate_karamata(f, t, scheme)
    elif mode == "beurling":
        results = m.estimate_beurling(f, phi, t, scheme)
    else:
        results = m.estimate_kernel(f, phi, h, t, scheme)
    rows = [f"{_fmt(point)},{_fmt(res.value)},{_fmt_bool(res.converged)}" for point, res in results]
    fit_default = INFINITY if mode == "karamata" else ZERO
    fit_rho, fit_sigma = fit_rho or fit_default, fit_sigma or fit_default
    usable = [(point, r.value) for point, r in results
              if _is_member(fit_rho, point) and _is_member(fit_sigma, r.value)]
    try:
        kappa, rms = m.fit_kappa(usable, fit_rho, fit_sigma)
    except ValueError:  # no usable point, or all of them at the identity: the rows stand without a fit
        kappa = rms = math.nan
    print(f"kappa={_fmt(kappa)} rms={_fmt(rms)}", file=sys.stderr)
    return "\n".join(["t,value,converged", *rows]), all(r.converged for _, r in results)


def _beck_partition(m, rho, delta, u):
    points = m.beck_partition(rho, delta, u)
    PopaPoint(rho, points[-1])  # the last point, delta^(i o), may overflow: a printed point is a group element
    return "\n".join(map(_fmt, points))


def _eta_rho(m, phi, t_probe, **scheme):
    res = m.estimate_rho(phi, t_probe, m.LimitScheme(**scheme))
    text = f"rho_hat={_fmt(res.value)} converged={_fmt_bool(res.converged)} last_delta={_fmt(res.last_delta)}"
    return f"{text} steps={res.steps_used}", res.converged


def _two_point(m, l1, g1, l2, g2, tol):
    rho, consistent = m.two_point_index(l1, g1, l2, g2, tol=tol)
    return f"rho={_fmt(rho)} {'consistent' if consistent else 'inconsistent'}"


def _subadd_check(m, s, rho, sigma, kappa, gamma, lo, hi, n, spacing, tol):
    S = _subadd_function(s, rho, sigma, kappa, gamma)
    rep = m.subadditivity_check(S, rho, sigma, m.GridSpec(lo, hi, n, spacing), tol)
    return (
        "holds,worst_violation,worst_x,worst_y,pairs_checked,pairs_skipped\n"
        f"{_fmt_bool(rep.holds)},{_fmt(rep.worst_violation)},{_fmt(rep.worst_pair[0])},"
        f"{_fmt(rep.worst_pair[1])},{rep.pairs_checked},{rep.pairs_skipped}"
    )


def _subadd_bounded(m, s, rho, sigma, kappa, gamma, points, tol):
    S = _subadd_function(s, rho, sigma, kappa, gamma)
    rep = m.additively_bounded_check(S, m.KernelParams(rho, sigma, kappa), points, tol)
    return (
        "holds,worst_violation,worst_t,points_checked\n"
        f"{_fmt_bool(rep.holds)},{_fmt(rep.worst_violation)},{_fmt(rep.worst_pair[0])},{rep.pairs_checked}"
    )


def _hs_probe(m, s, rho, sigma, kappa, gamma, tol):
    estimate, passes = m.heiberg_seneta_probe(_subadd_function(s, rho, sigma, kappa, gamma), tol=tol)
    return f"estimate={_fmt(estimate)} passes={_fmt_bool(passes)}"


def _sandwich(mod, s, rho, sigma, kappa, gamma, a, b, delta, m, probes):
    S = _subadd_function(s, rho, sigma, kappa, gamma)
    return f"holds={_fmt_bool(mod.sandwich_bound_check(S, rho, sigma, a, b, delta, m, probes=probes))}"


# ---------------------------------------------------------------- table ----
# An op's flags read like its usage line: "--name" is a flag the op requires, "--name=text" one
# that defaults to text, "--name=" one that may be absent, a bare name a positional operand.
# "--name:kind" overrides the kind _KINDS gives the name (unlisted: "number"). _CONVERT turns a
# value of each kind into the handler's argument; text, switches and choices pass through.

_KINDS = {
    **dict.fromkeys(("rho", "sigma", "fit-rho", "fit-sigma"), "param"),
    **dict.fromkeys(("f", "g", "h", "phi"), "function"),
    **dict.fromkeys(("n", "i", "probes", "max-steps", "stability-window"), "integer"),
    "strict": "switch",
    "points": "numbers",
    "tol": "tol",
    "truncation": "spec",
    "mode": ("karamata", "beurling", "general"),
    "spacing": ("linear", "geometric"),
}

_CONVERT = {
    "param": lambda label, text: PopaParam.parse(text),
    "number": _float,
    "integer": _int,
    "numbers": _float_list,
    "function": lambda label, text: _resolve_function(text),
    "profile": lambda label, text: _zero_extend(_resolve_function(text)),
    "spec": _spec,
    "tol": lambda label, text: _positive(label, _float(label, text)),
}

_SCHEME = "--tol=1e-6 --x0=10 --ratio=2 --max-steps=40 --stability-window=3 --strict"
_QUADRATURE = "--truncation=30 --strict"
_SUBADD = "--s:text --rho=0 --sigma=0 --kappa=1 --gamma=1"

_COMMANDS = {
    "group": ("group arithmetic", "popa", {
        "circle": ("--rho x y", lambda m, rho, x, y: m.circle(PopaPoint(rho, x), PopaPoint(rho, y)).value),
        "inverse": ("--rho x", lambda m, rho, x: m.inverse(PopaPoint(rho, x)).value),
        "norm": ("--rho x", lambda m, rho, x: m.norm(PopaPoint(rho, x))),
        "eta": ("--rho t", lambda m, rho, t: m.eta(rho, t)),
        "power": ("--rho delta n", lambda m, rho, delta, n: PopaPoint(rho, m.power(rho, delta, n)).value),
    }),
    "transform": ("invariant measure, transforms, convolutions", "haar", {
        "measure": ("--rho=0 --lo --hi", lambda m, rho, lo, hi: m.haar_interval_measure(m.Interval(rho, lo, hi))),
        "integrate": ("--rho=0 --f --lo --hi --strict",
                      lambda m, rho, f, lo, hi: m.haar_integrate(f, m.Interval(rho, lo, hi))),
        "fourier": (f"--rho=0 --f:profile --gamma {_QUADRATURE}",
                    lambda m, rho, f, gamma, truncation: m.fourier_popa(f, rho, gamma, truncation)),
        "mellin": (f"--rho --f:profile --z-re=0 --z-im=0 {_QUADRATURE}",
                   lambda m, rho, f, z_re, z_im, truncation: m.mellin_popa(f, rho, complex(z_re, z_im), truncation)),
        "popa-conv": (f"--rho=0 --f:profile --g:profile --x {_QUADRATURE}",
                      lambda m, rho, f, g, x, truncation: m.popa_convolution(f, g, PopaPoint(rho, x), truncation)),
        "beurling-conv": (f"--f:profile --h --phi --x {_QUADRATURE}",
                          lambda m, f, h, phi, x, truncation: m.beurling_convolution(f, h, phi, x, truncation)),
    }),
    "kernel": ("canonical kernel family", "kernels", {
        "eval": ("--rho --sigma=0 --kappa=1 --t", lambda m, rho, sigma, kappa, t:
                 PopaPoint(sigma, m.kernel_eval(m.KernelParams(rho, sigma, kappa), t)).value),
        "inverse": ("--rho --sigma=0 --kappa=1 --z", lambda m, rho, sigma, kappa, z:
                    PopaPoint(rho, m.kernel_inverse(m.KernelParams(rho, sigma, kappa), z)).value),
        "goldie-g": ("--rho --gamma=1 --u", lambda m, rho, gamma, u:
                     PopaPoint(ZERO, m.goldie_integral(m.GoldieAux(rho, gamma), u)).value),
    }),
    "estimate": ("limit estimation and index fitting", "asymptotics", {
        "kernel": (f"--mode --f --phi=one --h=one --t:numbers --fit-rho= --fit-sigma= {_SCHEME}", _estimate_kernel),
        "two-point": ("--l1 --g1 --l2 --g2 --tol=1e-6", _two_point),
        "eta-rho": (f"--phi --t-probe=1 {_SCHEME}", _eta_rho),
    }),
    "beck": ("iterate partitions and discrete sums", "asymptotics", {
        "partition": ("--rho --delta --u", _beck_partition),
        "sum": ("--rho --delta --u --g=one", lambda m, rho, delta, u, g: m.beck_riemann_sum(g, rho, delta, u)),
        "goldie-sum": ("--rho --delta --g=one --i --k-delta=1",
                       lambda m, rho, delta, g, i, k_delta: m.goldie_sum(k_delta, g, rho, delta, i)),
    }),
    "subadd": ("subadditivity diagnostics", "subadd", {
        "check": (f"{_SUBADD} --lo=0.1 --hi=5 --n=20 --spacing=linear --tol=1e-6", _subadd_check),
        "bounded": (f"{_SUBADD} --points=0.5,1,2 --tol=1e-6", _subadd_bounded),
        "hs-probe": (f"{_SUBADD} --tol=1e-6", _hs_probe),
        "sandwich": (f"{_SUBADD} --a=1 --b=4 --delta=0.5 --m=1 --probes=33", _sandwich),
    }),
    "cocycle": ("pre-limit cocycle identity residuals", "asymptotics", {
        "karamata": ("--f --s --t --x", lambda m, f, s, t, x: m.cocycle_residual_karamata(f, s, t, x)),
        "beurling": ("--f --phi=one --s --t --x",
                     lambda m, f, phi, s, t, x: m.cocycle_residual_beurling(f, phi, s, t, x)),
        "general": ("--f --phi=one --h=one --s --t --x",
                    lambda m, f, phi, h, s, t, x: m.cocycle_residual_general(f, phi, h, s, t, x)),
    }),
}


def _flags(usage: str) -> list[tuple[str, str, object, str | None]]:
    """(label, dest, kind, default) per token of a usage line; default None means required."""
    flags = []
    for token in usage.split():
        token, eq, default = token.partition("=")
        label, _, kind = token.partition(":")
        name = label.lstrip("-")
        flags.append((label, name.replace("-", "_"), kind or _KINDS.get(name, "number"), default if eq else None))
    return flags


def _usage(flags) -> str:
    """An op's flags as its help shows them: ``--f F``, ``--mode {a,b}``; optional ones in brackets, with a default."""
    words = []
    for label, dest, kind, default in flags:
        value = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else dest.upper()
        word = label if label[0] != "-" or kind == "switch" else f"{label}={default}" if default else f"{label} {value}"
        words.append(word if default is None and kind != "switch" else f"[{word}]")
    return " ".join(words)


def _exit(code: int, prog: str, usage: str, text: str = ""):
    """Print a help text (code 0) or a usage error (code 1), and exit with the code."""
    print(f"usage: {prog} {usage}" + (f"\n{prog}: error: {text}" if code else f"\n\n{text}".rstrip()),
          file=sys.stderr if code else sys.stdout)
    raise SystemExit(code)


def _word(word: str, labels):
    """(label, ``=`` text or None) of a flag, label None if unknown; None for an operand.  A flag is -h or starts
    with -- and up to any ``=`` is one of the labels; an unknown one with a space is an operand."""
    if word == "-h" or word[:2] != "--" or word == "--":
        return ("--help", None) if word == "-h" else None
    name, eq, text = word.partition("=")
    return (name, text if eq else None) if name in labels else None if " " in word else (None, None)


def _parse(argv: list[str]):
    """(module name, handler, flags, flag texts) of a command line read against its op's usage line.  The first two
    operands name the command and the op, the rest fill the op's operands in order, as does every word after a
    ``--``.  A flag's value follows its ``=`` or is the next operand; the last repeat wins.  Help exits 0, errors 1."""
    words, prog, extra, command, table = list(argv), "regvar", [], None, _COMMANDS
    for level in ("command", "op"):
        usage = "[-h] {" + ",".join(table) + "} ..."
        while flag := words and _word(words[0], ["--help"]):
            if flag[1] is not None:
                _exit(1, prog, usage, f"argument --help: ignored explicit argument {flag[1]!r}")
            if flag[0]:
                rows = "".join(f"\n  {name:<10} {summary}" for name, (summary, _, _) in _COMMANDS.items())
                _exit(0, prog, usage, _COMMANDS[command][0] if command else f"{__doc__}\ncommands:{rows}")
            extra.append(words.pop(0))
        if not words or words[0] not in table:
            _exit(1, prog, usage, f"argument {level}: invalid choice: {words[0]!r} (choose from {', '.join(table)})"
                  if words else f"the following arguments are required: {level}")
        name = words.pop(0)
        prog, command, table = f"{prog} {name}", command or name, table[name] if command else table[name][2]
    flags, handler = _flags(table[0]), table[1]  # table is now the op's (usage line, handler)
    usage, kinds = "[-h] " + _usage(flags), {"--help": (None, "switch"), **{f[0]: f[1:3] for f in flags}}
    texts = {dest: False if kind == "switch" else default or None for _, dest, kind, default in flags}
    operands = [dest for label, dest, _, _ in flags if label[0] != "-"]
    end = words.index("--") if "--" in words else len(words)  # the first -- ends the flags and is no value
    read, k = [_word(word, kinds) for word in words[:end]] + [("--", None)] + [None] * len(words), 0
    while k < len(words):
        word, flag, k = words[k], read[k], k + 1
        if flag is None and operands:
            texts[operands.pop(0)] = word
        elif flag is None or flag[0] is None:
            extra.append(word)  # a surplus operand or an unknown flag
        elif flag[0] != "--":
            (label, text), (dest, kind) = flag, kinds[flag[0]]
            if text is None and kind != "switch":  # the value is the next word, which must be an operand
                if k == len(words) or read[k] is not None:
                    _exit(1, prog, usage, f"argument {label}: expected one argument")
                text, k = words[k], k + 1
            if kind == "switch" and text is not None:
                _exit(1, prog, usage, f"argument {label}: ignored explicit argument {text!r}")
            if isinstance(kind, tuple) and text not in kind:
                _exit(1, prog, usage, f"argument {label}: invalid choice: {text!r} (choose from {', '.join(kind)})")
            texts[dest] = text if kind != "switch" else True if dest else _exit(0, prog, usage)  # --help has no dest
    missing = [label for label, dest, _, default in flags if default is None and texts[dest] is None]
    if extra or missing:  # every missing flag is reported (exit 1) before any value is converted (exit 2)
        _exit(1, prog, usage, f"unrecognized arguments: {' '.join(extra)}" if extra else
              f"{', '.join(missing)} {'is' if len(missing) == 1 else 'are'} required for this operation")
    return _COMMANDS[command][1], handler, flags, texts


def _convert(flags, texts: dict) -> dict:
    """Flag texts -> handler arguments."""
    return {dest: _CONVERT[kind](label, texts[dest]) if kind in _CONVERT and texts[dest] is not None else texts[dest]
            for label, dest, kind, _ in flags}


def _show(result) -> str:
    """Printed form of a handler's result: complex as "re,im", numbers with 15 digits, text as is."""
    if isinstance(result, complex):
        return f"{_fmt(result.real)},{_fmt(result.imag)}"
    return result if isinstance(result, str) else _fmt(result)


def _run(module, handler, flags, texts: dict) -> tuple[int, object]:
    """Exit code and error message of one parsed command line; prints the result."""
    try:
        values = _convert(flags, texts)
        strict = values.pop("strict", False)
        result, converged = handler(module, **values), True
        if isinstance(result, tuple):
            result, converged = result
        print(_show(result))
        if strict and not converged:
            return 3, "an estimate did not converge"
    except Warning as exc:  # a QuadratureWarning, raised as an error under --strict
        return 3, exc
    except ArithmeticError as exc:  # overflow in a closed form
        return 2, f"{exc} ({type(exc).__name__})"
    except ValueError as exc:
        return 2, exc
    return 0, None


def main(argv=None) -> int:
    try:
        module, handler, flags, texts = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return exc.code
    module = importlib.import_module(f"regvar.{module}")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("error" if texts.get("strict") else "always")
        code, error = _run(module, handler, flags, texts)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
