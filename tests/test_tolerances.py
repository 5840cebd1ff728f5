"""No public function or method of entroprod takes a tolerance or a grid
resolution: each check's tolerance is a named module constant, so no call
can loosen the premise a route rests on."""

import importlib
import inspect
import pkgutil
import re

import entroprod

KNOB = re.compile(r"tol|^t_max_factor$|^n_grid$|^margin$")

# The parameters that stay, each with the reason.
ALLOWED = {
    # the majorization suite compares 10 000-entry gamma-embeddings, whose
    # partial sums carry more round-off, with 1e-9 against the default 1e-12
    "entroprod.resource.majorization_verdict": "it sets the comparison window per caller",
    "entroprod.resource.majorizes": "it passes the window on to majorization_verdict",
    # the acceptance tests pin each suite's tolerance at the call
    "entroprod.verify.ft_table_suite": "a verify suite",
    "entroprod.verify.route_equality_suite": "a verify suite",
    "entroprod.verify.swap_engine_suite": "a verify suite",
    "entroprod.verify.landauer_suite": "a verify suite",
    "entroprod.verify.gaussian_ness_suite": "a verify suite",
    "entroprod.verify.quench_suite": "a verify suite",
    "entroprod.verify.squeezed_suite": "a verify suite",
}


def _public_callables():
    """(qualified name, callable) of every public function, class and
    method defined in an entroprod module."""
    for info in pkgutil.iter_modules(entroprod.__path__):
        module = importlib.import_module(f"entroprod.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) or inspect.isclass(obj):
                yield f"{module.__name__}.{name}", obj
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    fn = getattr(member, "__func__", member)     # classmethod, staticmethod
                    if not attr.startswith("_") and inspect.isfunction(fn):
                        yield f"{module.__name__}.{name}.{attr}", fn


def _parameters(obj):
    try:
        return inspect.signature(obj).parameters
    except (TypeError, ValueError):        # a class without an inspectable constructor
        return {}


def test_no_public_callable_takes_a_tolerance():
    knobs = sorted(f"{name}({param})" for name, obj in _public_callables()
                   for param in _parameters(obj)
                   if KNOB.search(param) and name not in ALLOWED)
    assert knobs == []


def test_every_allowed_callable_exists_and_keeps_its_knob():
    found = {name: [p for p in _parameters(obj) if KNOB.search(p)]
             for name, obj in _public_callables()}
    assert {name: bool(found.get(name)) for name in ALLOWED} == dict.fromkeys(ALLOWED, True)
