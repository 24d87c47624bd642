"""The package's memos: one clear_caches() empties them all, and the
tables built through them are pinned."""

import gc
import hashlib
import importlib
import json
import pkgutil

import pytest

import a2webs
from a2webs import clear_caches, spider
from a2webs.immanants import immanant_table
from a2webs.webcore import PlanarMap

# sha256 of json.dumps(immanant_table(5).to_json_obj(), sort_keys=True),
# recorded before the Hecke images were built on their cached prefixes
TABLE_5_SHA256 = "59944adb43ae65827b461e65efdd437f7810e654371cea8610d19eb38a44c449"
# the same at n = 6, recorded from products that were not memoized
TABLE_6_SHA256 = "af881f72bced8074aba52c641eba3a0117b7420a44ab3f65e7615c13105a3224"


def table_json(n):
    return json.dumps(immanant_table(n).to_json_obj(), sort_keys=True)


def package_caches():
    """Every cache_clear-bearing object in a module of the package."""
    found = {}
    for info in pkgutil.iter_modules(a2webs.__path__):
        module = importlib.import_module(f"a2webs.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_clear"):
                found[f"{info.name}.{name}"] = obj
    return found


def test_table_5_digest_is_pinned():
    assert hashlib.sha256(table_json(5).encode()).hexdigest() == TABLE_5_SHA256


@pytest.mark.slow
def test_table_6_digest_is_pinned():
    assert hashlib.sha256(table_json(6).encode()).hexdigest() == TABLE_6_SHA256


def test_clear_caches_empties_every_memo():
    before = table_json(4)
    caches = package_caches()
    assert {
        "spider.hecke_image", "spider.generator_combo", "spider.reduce_web", "spider.rewrite_step",
        "spider.web_product", "spider.shared_coefficient",
        "immanants.immanant_table", "minors._decompositions", "networks._sliced_web",
        "tlbridge.avoiding_321",
    } <= set(caches)
    assert caches["spider.hecke_image"].cache_info().currsize > 0
    assert caches["spider.shared_coefficient"].cache_info().currsize > 0
    assert spider.reduce_web.cache_info().currsize > 0
    assert spider.web_product.cache_info().currsize > 0
    clear_caches()
    assert {name: c.cache_info().currsize for name, c in caches.items() if c.cache_info().currsize} == {}
    assert table_json(4) == before


def test_clear_caches_frees_every_map():
    # a map keeps its walks' edge orders and roots, plain ints, so the
    # maps the memos held are freed with them
    def maps():
        gc.collect()
        return [o for o in gc.get_objects() if isinstance(o, PlanarMap)]

    clear_caches()
    before = len(maps())
    table_json(4)
    filled = maps()
    assert sum(m._walks is not None for m in filled) > 50
    del filled
    clear_caches()
    assert len(maps()) == before
