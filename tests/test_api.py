"""The package's public surface: what ``prioritaire.__all__`` lists."""

import importlib

import prioritaire

REMOVED = {
    "exceptional": ("max_depth_default", "_ENV_MAX_DEPTH", "DEFAULT_MAX_DEPTH", "_cap", "_exhausted"),
    "errors": ("DepthExhaustedError",),
    "surd": ("surd_sign", "surd_cmp", "Rational"),
    "helix": ("triangle_contains", "Triangle"),
    "frontier": ("SemistableKind",),
    "selfcheck": ("_CHECKS",),
}

REMOVED_SURD_MEMBERS = (
    "__mul__",
    "__rmul__",
    "__lt__",
    "__le__",
    "__gt__",
    "__ge__",
    "as_rational",
    "to_decimal",
)


def test_every_listed_name_resolves_once():
    names = prioritaire.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(prioritaire, name), name


def test_all_lists_exactly_the_public_imports():
    public = {
        name
        for name, value in vars(prioritaire).items()
        if not name.startswith("_") and not isinstance(value, type(prioritaire))
    }
    # The self-check's names are resolved on first use (PEP 562).
    assert public | set(prioritaire._LAZY) | {"__version__"} == set(prioritaire.__all__)


def test_removed_names_are_gone():
    for module, names in REMOVED.items():
        mod = importlib.import_module(f"prioritaire.{module}")
        for name in names:
            assert not hasattr(mod, name), f"{module}.{name}"
            assert not hasattr(prioritaire, name), name
    for member in REMOVED_SURD_MEMBERS:
        assert member not in vars(prioritaire.QuadSurd), member
