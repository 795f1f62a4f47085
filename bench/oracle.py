"""Expected answers that do not come from the engine under test.

Polynomials here are plain dicts from exponent tuples to `Fraction`, with
their own multiplication, text format and parser. The membership queries
are built so that the right answer is known by construction:

* a member is a combination of products of the algebra's generators;
* a non-member is a member plus x1*x2^(d-1). Setting every y and z to zero
  maps the algebra onto k[x_i^2, x_i^3], whose monomials never have an x
  exponent equal to 1, while the added monomial keeps its exponent 1 on x1
  and cannot cancel. So the sum is outside the algebra.

The generators follow the package's documented definition of the standard
instance: y_j, z, x_i^2 + x_i*z, x_i^3 + x_i^2*z, and every squarefree
x-monomial times one y_j.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction

Poly = dict  # exponent tuple -> nonzero Fraction


def variable_names(n: int, m: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(1, n + 1)) + tuple(
        f"y{j}" for j in range(1, m + 1)
    ) + ("z",)


def _unit(nv: int, *pairs: tuple[int, int]) -> tuple[int, ...]:
    exps = [0] * nv
    for index, e in pairs:
        exps[index] += e
    return tuple(exps)


def generators(n: int, m: int) -> list[Poly]:
    nv = n + m + 1
    z = n + m
    gens: list[Poly] = [{_unit(nv, (n + j, 1)): Fraction(1)} for j in range(m)]
    gens.append({_unit(nv, (z, 1)): Fraction(1)})
    for i in range(n):
        gens.append({_unit(nv, (i, 2)): Fraction(1), _unit(nv, (i, 1), (z, 1)): Fraction(1)})
        gens.append({_unit(nv, (i, 3)): Fraction(1), _unit(nv, (i, 2), (z, 1)): Fraction(1)})
    for j in range(m):
        for mask in range(1, 1 << n):
            pairs = [(i, 1) for i in range(n) if mask >> i & 1]
            gens.append({_unit(nv, (n + j, 1), *pairs): Fraction(1)})
    return gens


def degree(f: Poly) -> int:
    return max(sum(e) for e in f)


def mul(f: Poly, g: Poly) -> Poly:
    out: Poly = {}
    for a, c in f.items():
        for b, d in g.items():
            key = tuple(x + y for x, y in zip(a, b))
            out[key] = out.get(key, Fraction(0)) + c * d
    return {k: v for k, v in out.items() if v}


def add(f: Poly, g: Poly) -> Poly:
    out = dict(f)
    for k, v in g.items():
        out[k] = out.get(k, Fraction(0)) + v
    return {k: v for k, v in out.items() if v}


def scale(f: Poly, c: Fraction) -> Poly:
    return {k: v * c for k, v in f.items()}


def project_yz_to_zero(f: Poly, n: int) -> Poly:
    """Image under y_j = z = 0: keep only the pure-x terms."""
    return {k: v for k, v in f.items() if not any(k[n:])}


def has_x_exponent_one(f: Poly, n: int) -> bool:
    return any(1 in k[:n] for k in f)


def format_poly(f: Poly, names: tuple[str, ...]) -> str:
    chunks = []
    for exps in sorted(f, reverse=True):
        c = f[exps]
        factors = [
            name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e
        ]
        mag = abs(c)
        body = "*".join([str(mag)] + factors) if mag != 1 or not factors else "*".join(factors)
        if not chunks:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(chunks) if chunks else "0"


def parse_poly(text: str, names: tuple[str, ...]) -> Poly:
    """Parse sums of `coeff*var^e*...` terms, the form the engine prints."""
    index = {name: i for i, name in enumerate(names)}
    out: Poly = {}
    for chunk in text.replace(" - ", " + -").split(" + "):
        chunk = chunk.strip()
        sign = -1 if chunk.startswith("-") else 1
        coeff = Fraction(sign)
        exps = [0] * len(names)
        for factor in chunk.lstrip("-").split("*"):
            if factor[0].isdigit():
                coeff *= Fraction(factor)
                continue
            name, _, power = factor.partition("^")
            exps[index[name]] += int(power) if power else 1
        key = tuple(exps)
        out[key] = out.get(key, Fraction(0)) + coeff
    return {k: v for k, v in out.items() if v}


@dataclass(frozen=True)
class Query:
    text: str
    poly: Poly
    member: bool
    degree: int


def _random_product(rng: random.Random, gens: list[Poly], nv: int, d: int) -> Poly:
    product: Poly = {_unit(nv): Fraction(1)}
    remaining = d
    while remaining:
        choices = [g for g in gens if degree(g) <= remaining]
        g = rng.choice(choices)
        product = mul(product, g)
        remaining -= degree(g)
    return product


def _coefficient(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))


def membership_queries(
    seed: int, count: int, n: int, m: int, degrees: range
) -> list[Query]:
    """`count` queries, half members, degrees drawn uniformly from `degrees`."""
    if n < 2:
        raise ValueError("the non-member construction needs n >= 2")
    rng = random.Random(seed)
    gens = generators(n, m)
    names = variable_names(n, m)
    nv = len(names)
    queries = []
    while len(queries) < count:
        d = rng.choice(degrees)
        member: Poly = {}
        for _ in range(rng.randint(1, 3)):
            member = add(member, scale(_random_product(rng, gens, nv, d), _coefficient(rng)))
        if not member:
            continue
        is_member = len(queries) % 2 == 0
        poly = member if is_member else add(member, {_unit(nv, (0, 1), (1, d - 1)): Fraction(1)})
        queries.append(Query(format_poly(poly, names), poly, is_member, d))
    rng.shuffle(queries)
    return queries


def report_digest(report_json: str) -> str:
    return hashlib.sha256(report_json.encode("utf-8")).hexdigest()
