"""Deliberate corruptions of the evaluation modules, for tests that show the
relation checks catch a wrong generator.

Each mutation names the builder whose module it corrupts and the corruption:
x+(1) zeroed, e_1 doubled, x-(0) scaled by rs, or x+(1) plus the identity.
The last one breaks the a-grading: x+(1) is no longer homogeneous of
a-degree 1, so it is not the loop twist's image of itself.
"""

from rsaffine.field import R, S
from rsaffine.matrix import Matrix
from rsaffine.rep_core import E, Xm, Xp

MUTATIONS = {
    "xplus": ("build_current_eval", lambda m: m.with_assign(Xp(1, 1), Matrix.zeros(m.dim))),
    "e1scale": ("build_chevalley_eval", lambda m: m.with_assign(E(1), m.get(E(1)).scale(2))),
    "xminus-scale": (
        "build_current_eval",
        lambda m: m.with_assign(Xm(1, 0), m.get(Xm(1, 0)).scale(R * S)),
    ),
    "xplus-identity": (
        "build_current_eval",
        lambda m: m.with_assign(Xp(1, 1), m.get(Xp(1, 1)) + Matrix.identity(m.dim)),
    ),
}


def apply_mutation(chev, curr, which):
    """(chev, curr) with the one generator that `which` corrupts changed."""
    builder, corrupt = MUTATIONS[which]
    if builder == "build_chevalley_eval":
        return corrupt(chev), curr
    return chev, corrupt(curr)


def mutate_cli(monkeypatch, which):
    """Have the command line build its modules with `which` applied."""
    from rsaffine import cli

    builder, corrupt = MUTATIONS[which]
    build = getattr(cli, builder)
    monkeypatch.setattr(cli, builder, lambda *args, **kwargs: corrupt(build(*args, **kwargs)))
