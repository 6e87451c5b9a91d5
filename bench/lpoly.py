"""A small exact Laurent polynomial type owned by the benchmark.

The benchmark builds its inputs and checks the program's outputs with
this module only, so a change to ``twistcert.laurent`` can neither shift
the inputs nor make a wrong output look right.  A polynomial is a dict
from exponent tuples to nonzero int or Fraction coefficients.

``to_text`` writes the program's documented text format (terms in
ascending exponent order, ``3/2*t^2``, ``- t^-1``) and ``parse`` reads it
back strictly, so an output in any other shape fails its check.
"""

from __future__ import annotations

import re
from fractions import Fraction

_SEP = re.compile(r" ([+-]) ")
_FACTOR = re.compile(r"([A-Za-z][A-Za-z0-9]*)(?:\^(-?\d+))?")
_NUMBER = re.compile(r"(\d+)(?:/(\d+))?")


def clean(terms: dict) -> dict:
    return {e: c for e, c in terms.items() if c}


def add(f: dict, g: dict, sign: int = 1) -> dict:
    out = dict(f)
    for e, c in g.items():
        out[e] = out.get(e, 0) + sign * c
    return clean(out)


def mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return clean(out)


def const(c, nvars: int = 1) -> dict:
    return clean({(0,) * nvars: c})


def mono(exps, c=1) -> dict:
    return clean({tuple(exps): c})


def involution(f: dict) -> dict:
    return {tuple(-e for e in exps): c for exps, c in f.items()}


def matmul(x: tuple, y: tuple) -> tuple:
    """Product of 2x2 matrices given as (a, b, c, d) tuples of polys."""
    a, b, c, d = x
    p, q, r, s = y
    return (add(mul(a, p), mul(b, r)), add(mul(a, q), mul(b, s)),
            add(mul(c, p), mul(d, r)), add(mul(c, q), mul(d, s)))


def to_text(f: dict, names=("t",)) -> str:
    if not f:
        return "0"
    chunks = []
    for exps in sorted(f):
        c = f[exps]
        mag = -c if c < 0 else c
        parts = [n if e == 1 else f"{n}^{e}"
                 for n, e in zip(names, exps) if e]
        if not parts:
            body = str(mag)
        else:
            if mag != 1:
                parts.insert(0, str(mag))
            body = "*".join(parts)
        if not chunks:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(chunks)


def parse(text: str, names=("t",)) -> dict:
    """Read the program's text format; raise ValueError on any deviation."""
    text = text.strip()
    if text == "0":
        return {}
    pieces = _SEP.split(text)
    signs = [1] + [1 if s == "+" else -1 for s in pieces[1::2]]
    if pieces[0].startswith("-"):
        signs[0], pieces[0] = -1, pieces[0][1:]
    out: dict = {}
    for sign, body in zip(signs, pieces[0::2]):
        coeff = Fraction(1)
        exps = [0] * len(names)
        for k, part in enumerate(body.split("*")):
            num = _NUMBER.fullmatch(part)
            if num and k == 0:
                coeff = Fraction(int(num.group(1)), int(num.group(2) or 1))
                continue
            var = _FACTOR.fullmatch(part)
            if not var or var.group(1) not in names:
                raise ValueError(f"bad term {body!r} in {text!r}")
            exps[names.index(var.group(1))] = int(var.group(2) or 1)
        key = tuple(exps)
        if key in out or coeff == 0:
            raise ValueError(f"repeated or zero term in {text!r}")
        out[key] = sign * (int(coeff) if coeff.denominator == 1 else coeff)
    if to_text(out, names) != text:
        raise ValueError(f"{text!r} is not in canonical form")
    return out


def valuation(f: dict) -> int:
    return min(e[0] for e in f)
