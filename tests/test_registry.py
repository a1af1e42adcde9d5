"""Descriptor validation and catalog behavior."""

import json
import random
from pathlib import Path

import pytest

from psvc.protocol import YellowQuery, json_equal
from psvc.registry import (
    BROKER_DESCRIPTOR,
    CatalogDirError,
    DescriptorError,
    list_matching,
    list_matching_white,
    load_catalog,
    validate_descriptor,
)

from conftest import random_presentation, write_descriptor

GOOD_LOCAL = {
    "configuration": {"dir": "/srv/auth", "cmd": ["java", "-jar", "auth.jar"]},
    "presentation": {"Purpose": "authentication", "Device": "Portuguese eID"},
}


def check(text: str | dict, **kwargs):
    if isinstance(text, dict):
        text = json.dumps(text)
    return validate_descriptor(text, descriptor_id="t", default_dir=Path("/fallback"), **kwargs)


class TestValidateDescriptor:
    def test_good_local(self):
        desc = check(GOOD_LOCAL)
        assert desc.descriptor_id == "t"
        assert desc.cmd == ("java", "-jar", "auth.jar")
        assert desc.url is None
        assert not desc.is_remote
        assert desc.workdir == Path("/srv/auth")
        assert desc.presentation["Device"] == "Portuguese eID"

    def test_good_remote(self):
        desc = check(
            {
                "configuration": {"url": "https://pss.example.org/auth"},
                "presentation": {"Purpose": "authentication"},
            }
        )
        assert desc.is_remote
        assert desc.cmd is None

    def test_dir_defaults_to_catalog_dir(self):
        doc = {"configuration": {"cmd": ["x"]}, "presentation": {"a": 1}}
        assert check(doc).workdir == Path("/fallback")

    def test_bytes_input_decoded_as_utf8(self):
        text = json.dumps(
            {"configuration": {"cmd": ["x"]}, "presentation": {"Device name": "Cartão"}},
            ensure_ascii=False,
        )
        desc = validate_descriptor(
            text.encode("utf-8"), descriptor_id="cc", default_dir=Path(".")
        )
        assert desc.presentation["Device name"] == "Cartão"

    @pytest.mark.parametrize(
        "mangle, problem",
        [
            (lambda d: "{nope", "json"),
            (lambda d: b"\xff\xfe\x00", "json"),
            (lambda d: "[1, 2]", "shape"),
            (lambda d: {"presentation": {"a": 1}}, "shape"),
            (lambda d: {"configuration": {"cmd": ["x"]}}, "shape"),
            (lambda d: {"configuration": [], "presentation": {"a": 1}}, "shape"),
            (
                lambda d: {
                    "configuration": {"cmd": ["x"], "url": "http://h"},
                    "presentation": {"a": 1},
                },
                "launcher",
            ),
            (lambda d: {"configuration": {}, "presentation": {"a": 1}}, "launcher"),
            (lambda d: {"configuration": {"cmd": []}, "presentation": {"a": 1}}, "launcher"),
            (lambda d: {"configuration": {"cmd": "java"}, "presentation": {"a": 1}}, "launcher"),
            (lambda d: {"configuration": {"cmd": ["x", 3]}, "presentation": {"a": 1}}, "launcher"),
            (lambda d: {"configuration": {"url": "ftp://h"}, "presentation": {"a": 1}}, "launcher"),
            (lambda d: {"configuration": {"cmd": ["x"]}, "presentation": {}}, "presentation"),
            (
                lambda d: {"configuration": {"cmd": ["x"], "dir": 5}, "presentation": {"a": 1}},
                "shape",
            ),
        ],
    )
    def test_rejections(self, mangle, problem):
        doc = mangle(GOOD_LOCAL)
        with pytest.raises(DescriptorError) as info:
            if isinstance(doc, bytes):
                validate_descriptor(doc, descriptor_id="t", default_dir=Path("."))
            else:
                check(doc)
        assert info.value.problem == problem


class TestLoadCatalog:
    def test_loads_only_psd_files_sorted(self, tmp_path):
        write_descriptor(tmp_path, "bbb", {"n": 2}, cmd=["x"])
        write_descriptor(tmp_path, "aaa", {"n": 1}, cmd=["x"])
        (tmp_path / "notes.txt").write_text("ignore me")
        (tmp_path / "nested").mkdir()
        catalog = load_catalog(tmp_path)
        assert sorted(catalog.entries) == ["aaa", "bbb"]
        assert len(catalog) == 2
        assert catalog.diagnostics == ()

    def test_broker_descriptor_never_enters_catalog(self, tmp_path):
        write_descriptor(tmp_path, BROKER_DESCRIPTOR, {"Purpose": "brokering"}, cmd=["x"])
        write_descriptor(tmp_path, "svc", {"Purpose": "authentication"}, cmd=["x"])
        catalog = load_catalog(tmp_path)
        assert list(catalog.entries) == ["svc"]

    def test_broken_files_become_diagnostics(self, tmp_path):
        write_descriptor(tmp_path, "good", {"a": 1}, cmd=["x"])
        (tmp_path / "bad.psd").write_text("{broken")
        (tmp_path / "empty.psd").write_text(
            json.dumps({"configuration": {"cmd": ["x"]}, "presentation": {}})
        )
        catalog = load_catalog(tmp_path)
        assert list(catalog.entries) == ["good"]
        assert {name for name, _ in catalog.diagnostics} == {"bad.psd", "empty.psd"}

    def test_missing_directory(self, tmp_path):
        with pytest.raises(CatalogDirError):
            load_catalog(tmp_path / "absent")

    def test_verbatim_example_descriptor(self, tmp_path):
        (tmp_path / "cc.psd").write_text(
            """{
  "configuration" : {
    "dir": "Z:/PersonalServices/CCPersonalService",
    "cmd": [
      "java",
      "-jar",
      "CCPersonalService.jar"
    ]
  },
  "presentation": {
    "Purpose": "authentication",
    "Credentials": "digital signature",
    "Protocol": "certificate + digital signature",
    "Device": "Portuguese eID",
    "Device name": "Cartão de Cidadão"
  }
}""",
            "utf-8",
        )
        catalog = load_catalog(tmp_path)
        assert len(catalog) == 1
        entry = catalog.entries["cc"]
        assert len(entry.presentation) == 5
        assert entry.presentation["Device name"] == "Cartão de Cidadão"
        hits = list_matching_white(
            catalog, {"Purpose": "authentication", "Device": "Portuguese eID"}
        )
        assert [d.descriptor_id for d in hits] == ["cc"]


class TestMatching:
    def _catalog(self, tmp_path, presentations):
        for i, presentation in enumerate(presentations):
            write_descriptor(tmp_path, f"s{i:03d}", presentation, cmd=["x"])
        return load_catalog(tmp_path)

    def test_yellow_ordering_by_id(self, tmp_path):
        catalog = self._catalog(
            tmp_path, [{"P": "a"}, {"Q": 1}, {"p": "A"}]
        )
        hits = list_matching(catalog, YellowQuery("p", "a"))
        assert [d.descriptor_id for d in hits] == ["s000", "s002"]

    def test_white_unique_and_errors(self, tmp_path):
        catalog = self._catalog(
            tmp_path,
            [
                {"Purpose": "authentication", "Device": "A"},
                {"Purpose": "authentication", "Device": "B"},
            ],
        )
        def ids(query):
            return [d.descriptor_id for d in list_matching_white(catalog, query)]

        assert ids({"Device": "A"}) == ["s000"]
        assert ids({"Purpose": "authentication"}) == ["s000", "s001"]
        assert ids({"Device": "C"}) == []

    def test_random_catalogs_agree_with_brute_force(self, tmp_path):
        rng = random.Random(31337)
        for round_no in range(40):
            directory = tmp_path / f"r{round_no}"
            directory.mkdir()
            presentations = [random_presentation(rng) for _ in range(rng.randint(1, 8))]
            catalog = self._catalog(directory, presentations)

            # Yellow: brute force over every (attr, value) pair.
            source = rng.choice(presentations)
            attr = rng.choice(list(source))
            query = YellowQuery(attr, source[attr])
            expected = []
            for i, presentation in enumerate(presentations):
                for k, v in presentation.items():
                    if k.casefold() != attr.casefold():
                        continue
                    qv = query.value
                    same = (
                        qv.casefold() == v.casefold()
                        if isinstance(qv, str) and isinstance(v, str)
                        else json_equal(qv, v)
                    )
                    if same:
                        expected.append(f"s{i:03d}")
                        break
            got = [d.descriptor_id for d in list_matching(catalog, query)]
            assert got == expected

            # White: brute force subset check.
            wq = {attr: source[attr]}
            expected_w = [
                f"s{i:03d}"
                for i, p in enumerate(presentations)
                if all(k in p and json_equal(v, p[k]) for k, v in wq.items())
            ]
            got_w = [d.descriptor_id for d in list_matching_white(catalog, wq)]
            assert got_w == expected_w
