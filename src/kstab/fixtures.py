"""Builtin input documents used by the CLI and the test suite.

Each fixture is a plain JSON-ready dict in the schema of `kstab.schema`;
rational entries are strings so round trips are exact.
"""

from __future__ import annotations

from .rootsys import RootSystem


def wonderful_fixture(letter: str, rank: int) -> dict:
    """Wonderful compactification of the adjoint group of the given type,
    anticanonically polarized, in root-lattice coordinates."""
    rs = RootSystem(letter, rank)
    cm = rs.cartan_matrix
    n = rank
    divisors = []
    for i in range(n):
        rho = ["0"] * n
        rho[i] = "-1"
        divisors.append({"name": f"X{i + 1}", "rho": rho, "coeff": "1",
                         "is_color": False})
    for i in range(n):
        divisors.append({"name": f"D{i + 1}",
                         "rho": [str(cm[i][j]) for j in range(n)],
                         "coeff": "2", "is_color": True})
    gens = []
    for i in range(n):
        g = ["0"] * n
        g[i] = "-1"
        gens.append(g)
    dim_x = rank + 2 * len(rs.positive_roots_euclidean)
    return {
        "schema_version": "1",
        "variety": {
            "rank": n,
            "dim_x": dim_x,
            "divisors": divisors,
            "anticanonical_divisors": [dict(d) for d in divisors],
            "fan": [
                {"generators": gens,
                 "divisors": [f"X{i + 1}" for i in range(n)]},
            ],
            "valuation_cone": {"generators": gens},
            "projection": [],
        },
        "root_system": {
            "type": letter,
            "rank": rank,
            "active_roots": "all",
            "chi": ["2"] * n,
            "embed": [[str(cm[i][j]) for j in range(n)] for i in range(n)],
            "squared": True,
        },
    }


def toric_fixture(rays: dict[str, list[str]], cones: list[list[str]]) -> dict:
    """A complete toric variety with its torus action, anticanonically
    polarized: each torus-invariant divisor by name and primitive ray, and
    each maximal cone by the names of its rays."""
    rank = len(next(iter(rays.values())))
    divisors = [{"name": name, "rho": rho, "coeff": "1", "is_color": False}
                for name, rho in rays.items()]
    return {
        "schema_version": "1",
        "variety": {
            "rank": rank,
            "dim_x": rank,
            "divisors": divisors,
            "anticanonical_divisors": [dict(d) for d in divisors],
            "fan": [{"generators": [rays[name] for name in cone], "divisors": list(cone)}
                    for cone in cones],
            "valuation_cone": "all",
            "projection": [["1" if i == j else "0" for j in range(rank)] for i in range(rank)],
        },
    }


_BUILTINS = {
    # PGL(2) is the A1 wonderful compactification: section polytope [-1, 1],
    # valuation cone spanned by -1, and a density factor pairing 2x + 2 with
    # multiplicity two, so level-k module dimensions are the odd squares
    # (1, 9, 25, ... at level 1)
    "pgl2": lambda: wonderful_fixture("A", 1),
    "wonderful-a1": lambda: wonderful_fixture("A", 1),
    "wonderful-a2": lambda: wonderful_fixture("A", 2),
    # the projective line
    "toric-p1": lambda: toric_fixture({"D0": ["1"], "Dinf": ["-1"]}, [["D0"], ["Dinf"]]),
    # the projective plane blown up in one torus-fixed point
    "toric-bl1p2": lambda: toric_fixture(
        {"D1": ["1", "0"], "D2": ["0", "1"], "E": ["1", "1"], "D3": ["-1", "-1"]},
        [["D1", "E"], ["E", "D2"], ["D2", "D3"], ["D3", "D1"]]),
}

BUILTIN_NAMES = tuple(_BUILTINS)


def builtin_document(name: str) -> dict:
    if name not in _BUILTINS:
        raise KeyError(f"unknown builtin fixture {name!r}")
    return _BUILTINS[name]()


def builtin_spherical_input(name: str):
    """(SphericalInput, WeightFn | None) for a builtin fixture."""
    from .schema import parse_input_document
    return parse_input_document(builtin_document(name))
