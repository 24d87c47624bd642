"""The package's memos: one clear_caches() empties them all, and the
tables built through them are pinned."""

import gc
import hashlib
import importlib
import json
import pkgutil

import pytest

import a2webs
from a2webs import clear_caches, spider, tlbridge
from a2webs.immanants import immanant_table
from a2webs.labelings import boundary_profile
from a2webs.spider import product_web
from a2webs.webcore import PlanarMap

# sha256 of json.dumps(immanant_table(5).to_json_obj(), sort_keys=True),
# recorded before the Hecke images were built on their cached prefixes
TABLE_5_SHA256 = "59944adb43ae65827b461e65efdd437f7810e654371cea8610d19eb38a44c449"
# the same at n = 6, recorded from products that were not memoized
TABLE_6_SHA256 = "af881f72bced8074aba52c641eba3a0117b7420a44ab3f65e7615c13105a3224"


def table_json(n):
    return json.dumps(immanant_table(n).to_json_obj(), sort_keys=True)


def package_caches():
    """Every cache_clear-bearing object of the package, named by the
    module that defines it: a memo another module imports is listed
    once."""
    found = {}
    for info in pkgutil.iter_modules(a2webs.__path__):
        module = importlib.import_module(f"a2webs.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_clear") and obj.__module__ == module.__name__:
                found[f"{info.name}.{name}"] = obj
    return found


def test_table_5_digest_is_pinned():
    assert hashlib.sha256(table_json(5).encode()).hexdigest() == TABLE_5_SHA256


@pytest.mark.slow
def test_table_6_digest_is_pinned():
    assert hashlib.sha256(table_json(6).encode()).hexdigest() == TABLE_6_SHA256


def test_clear_caches_empties_every_memo():
    before = table_json(4)
    w = product_web(3, (1, 2, 1))
    profile = boundary_profile(w)
    assert spider.all_orders_agree(w)
    tlbridge.tl_web((2, 1, 3))
    caches = package_caches()
    # exactly these: a memo added or removed shows here
    assert set(caches) == {
        "spider.hecke_image", "spider.generator_combo", "spider.reduce_web",
        "spider.rewrite_sites", "spider.rewrite_at", "spider.web_product", "spider._hecke_step",
        "labelings.boundary_profile", "immanants.immanant_table", "minors._decompositions",
        "networks._sliced_web", "networks._vertex_columns",
        "tlbridge.avoiding_321", "tlbridge._tl_web", "tlbridge._matching",
    }
    for name in ("spider.hecke_image", "spider.reduce_web", "spider.web_product",
                 "spider.rewrite_sites", "spider.rewrite_at", "labelings.boundary_profile", "tlbridge._tl_web",
                 "spider._hecke_step"):
        assert caches[name].cache_info().currsize > 0, name
    clear_caches()
    assert {name: c.cache_info().currsize for name, c in caches.items() if c.cache_info().currsize} == {}
    assert table_json(4) == before
    assert boundary_profile(w) == profile


def test_clear_caches_frees_every_map():
    # a map keeps its walks' edge orders and roots, plain ints, so the
    # maps the memos held are freed with them
    def maps():
        gc.collect()
        return [o for o in gc.get_objects() if isinstance(o, PlanarMap)]

    clear_caches()
    before = len(maps())
    table_json(5)
    filled = maps()
    assert sum(m._walks is not None for m in filled) > 50
    del filled
    clear_caches()
    assert len(maps()) == before
