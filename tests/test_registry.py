"""Descriptor validation and catalog behavior."""

import json
import os
import random
import threading
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import psvc.kit
import psvc.registry
from psvc import cli
from psvc.registry import (
    BROKER_DESCRIPTOR,
    MAX_DESCRIPTOR_BYTES,
    MAX_QUERY_DEPTH,
    Catalog,
    CatalogDirError,
    DescriptorError,
    ServiceDescriptor,
    YellowQuery,
    _nested_deeper,
    json_equal,
    list_matching,
    list_matching_white,
    load_catalog,
    validate_descriptor,
    white_match,
    yellow_match,
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
                "configuration": {"url": "http://pss.example.org/auth"},
                "presentation": {"Purpose": "authentication"},
            }
        )
        assert desc.is_remote
        assert desc.cmd is None

    def test_https_url_is_rejected_and_linted(self, tmp_path, capsys):
        # The proxy forwards plain http only, so such a service could never be invoked.
        doc = {
            "configuration": {"url": "https://pss.example.org/auth"},
            "presentation": {"Purpose": "authentication"},
        }
        with pytest.raises(DescriptorError) as info:
            check(doc)
        assert info.value.problem == "launcher"
        path = tmp_path / "remote.psd"
        path.write_text(json.dumps(doc), "utf-8")
        assert cli.main(["lint", str(path)]) == 1
        assert f"{path}: launcher: url must start with http://" in capsys.readouterr().err

    def test_dir_defaults_to_catalog_dir(self):
        doc = {"configuration": {"cmd": ["x"]}, "presentation": {"a": 1}}
        assert check(doc).workdir == Path("/fallback")

    def test_a_relative_dir_resolves_against_the_descriptor_directory(
        self, tmp_path, monkeypatch
    ):
        catalog_dir = tmp_path / "ps"
        catalog_dir.mkdir()
        write_descriptor(catalog_dir, "cc", {"Purpose": "x"}, cmd=["x"], workdir="sub")
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)  # never the broker's working directory
        assert load_catalog(catalog_dir).entries["cc"].workdir == catalog_dir / "sub"

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

    def test_an_empty_attribute_name_is_refused(self):
        doc = {"configuration": {"cmd": ["x"]}, "presentation": {"": 1, "a": 1}}
        with pytest.raises(DescriptorError, match="attribute names must be non-empty") as info:
            check(doc)
        assert info.value.problem == "presentation"

    @pytest.mark.parametrize(
        "value", ["[" * 5000 + "]" * 5000, "7" * 5000], ids=["deep", "long-number"]
    )
    def test_json_the_parser_gives_up_on_is_a_json_problem(self, value):
        text = '{"configuration": {"cmd": ["x"]}, "presentation": {"a": ' + value + "}}"
        with pytest.raises(DescriptorError) as info:
            validate_descriptor(text, descriptor_id="t", default_dir=Path("."))
        assert info.value.problem == "json"


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

    def test_presentation_nested_too_deep_is_skipped(self, tmp_path):
        def nested(depth: int) -> dict:  # the presentation object is the first level
            value: list = []
            for _ in range(depth - 2):
                value = [value]
            return {"Purpose": "authentication", "Deep": value}

        write_descriptor(tmp_path, "fits", nested(MAX_QUERY_DEPTH), cmd=["x"])
        write_descriptor(tmp_path, "deep", nested(MAX_QUERY_DEPTH + 1), cmd=["x"])
        catalog = load_catalog(tmp_path)
        assert list(catalog.entries) == ["fits"]
        assert catalog.diagnostics == (("deep.psd", "nested deeper than 32 levels"),)

    def test_a_file_over_the_size_bound_is_skipped_unread(self, tmp_path):
        write_descriptor(tmp_path, "good", {"a": 1}, cmd=["x"])
        huge = tmp_path / "huge.psd"
        huge.touch()
        os.truncate(huge, 1 << 30)  # sparse: no disk, and reading it whole would take seconds
        start = time.monotonic()
        catalog = load_catalog(tmp_path)
        assert time.monotonic() - start < 0.5
        assert list(catalog.entries) == ["good"]
        assert catalog.diagnostics == (("huge.psd", "larger than 65536 bytes"),)

    def test_a_file_that_fails_to_read_is_a_diagnostic(self, tmp_path):
        write_descriptor(tmp_path, "good", {"a": 1}, cmd=["x"])
        # A regular file by stat whose first page the loader's own process has not mapped.
        (tmp_path / "mem.psd").symlink_to("/proc/self/mem")
        catalog = load_catalog(tmp_path)
        assert list(catalog.entries) == ["good"]
        [(name, problem)] = catalog.diagnostics
        assert (name, problem) == ("mem.psd", "unreadable: [Errno 5] Input/output error")

    def test_a_file_removed_after_the_listing_is_a_diagnostic(self, tmp_path, monkeypatch):
        write_descriptor(tmp_path, "good", {"a": 1}, cmd=["x"])
        gone = write_descriptor(tmp_path, "gone", {"a": 2}, cmd=["x"])
        read = psvc.registry.read_descriptor

        def removing_first(path):
            if path == str(gone):
                gone.unlink()
            return read(path)

        monkeypatch.setattr(psvc.registry, "read_descriptor", removing_first)
        catalog = load_catalog(tmp_path)
        assert list(catalog.entries) == ["good"]
        assert catalog.diagnostics == (
            ("gone.psd", f"unreadable: [Errno 2] No such file or directory: '{gone}'"),
        )

    def test_the_size_bound_is_one_header_line(self, tmp_path, capsys):
        assert MAX_DESCRIPTOR_BYTES == psvc.kit.MAX_LINE
        head = '{"configuration": {"cmd": ["x"]}, "presentation": {"a": "'
        for name, size in (("fits", MAX_DESCRIPTOR_BYTES), ("over", MAX_DESCRIPTOR_BYTES + 1)):
            (tmp_path / f"{name}.psd").write_text(head + "x" * (size - len(head) - 3) + '"}}')
        assert list(load_catalog(tmp_path).entries) == ["fits"]
        assert cli.main(["lint", str(tmp_path / "over.psd")]) == 1
        assert capsys.readouterr().err == f"{tmp_path / 'over.psd'}: size: larger than 65536 bytes\n"

    def test_lint_does_not_wait_on_a_fifo(self, tmp_path, capsys):
        fifo = tmp_path / "pipe.psd"
        os.mkfifo(fifo)  # opening one for reading would wait for a writer
        codes: list[int] = []
        lint = lambda: codes.append(cli.main(["lint", str(fifo)]))  # noqa: E731
        linting = threading.Thread(target=lint, daemon=True)
        linting.start()
        linting.join(5)
        assert codes == [1]
        assert capsys.readouterr().err.startswith(f"{fifo}: json: invalid JSON")

    def test_a_shallow_descriptor_is_not_walked(self, tmp_path, monkeypatch):
        walked: list[dict] = []

        def counting(value, room):
            if room == MAX_QUERY_DEPTH:  # the walk's own recursion calls this name too
                walked.append(value)
            return _nested_deeper(value, room)

        monkeypatch.setattr(psvc.registry, "_nested_deeper", counting)
        write_descriptor(tmp_path, "plain", {"Purpose": "authentication", "Slots": [1, [2]]}, cmd=["x"])
        write_descriptor(tmp_path, "bracketed", {"Note": "[" * MAX_QUERY_DEPTH}, cmd=["x"])
        catalog = load_catalog(tmp_path)
        assert list(catalog.entries) == ["bracketed", "plain"]
        assert walked == [{"Note": "[" * MAX_QUERY_DEPTH}]

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


# Brackets in keys and strings count toward the text's brackets, never its depth.
BRACKETED = st.text(alphabet="{[]}a\"\\", max_size=4)
PLAIN = st.text(alphabet="a", max_size=2)


@st.composite
def nested_presentations(draw) -> dict:
    """A presentation whose lists and objects nest 1 to 40 levels, itself the first."""
    depth = draw(st.integers(1, 40))
    # Texts with brackets send every deep presentation to the walk; plain ones
    # try the shortcut right at the bound.
    texts = draw(st.sampled_from([PLAIN, BRACKETED]))
    value = draw(texts | st.just([]) | st.just({}))
    for _ in range(depth - 2 if isinstance(value, (list, dict)) else depth - 1):
        sibling = draw(texts)
        value = draw(st.sampled_from([[value], [value, sibling], {sibling: value}]))
    return {draw(texts.filter(bool)): value, "Purpose": draw(texts)}


class TestDepthShortcut:
    @settings(max_examples=300, deadline=None)
    @given(nested_presentations())
    def test_load_catalog_refuses_exactly_what_the_walk_refuses(self, tmp_path_factory, presentation):
        directory = tmp_path_factory.mktemp("depth")
        write_descriptor(directory, "d", presentation, cmd=["x"])
        catalog = load_catalog(directory)
        parsed = json.loads((directory / "d.psd").read_text("utf-8"))["presentation"]
        if _nested_deeper(parsed, MAX_QUERY_DEPTH):
            assert catalog.diagnostics == (("d.psd", "nested deeper than 32 levels"),)
        else:
            assert catalog.entries["d"].presentation == parsed


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

    def test_id_order_wins_over_file_name_order(self, tmp_path):
        # "a-b.psd" sorts before "a.psd" by file name, but id "a" before "a-b".
        write_descriptor(tmp_path, "a-b", {"Purpose": "x"}, cmd=["x"])
        write_descriptor(tmp_path, "a", {"Purpose": "x"}, cmd=["x"])
        catalog = load_catalog(tmp_path)
        assert list(catalog.entries) == ["a", "a-b"]
        hits = list_matching(catalog, YellowQuery("Purpose", "x"))
        assert [d.descriptor_id for d in hits] == ["a", "a-b"]
        hits = list_matching_white(catalog, {"Purpose": "x"})
        assert [d.descriptor_id for d in hits] == ["a", "a-b"]

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


# Few names and values, so that case variants and casefold pairs meet
# inside one presentation and across descriptors.
NAMES = st.sampled_from(["Purpose", "purpose", "PURPOSE", "Device", "dEVICE", "Straße", "STRASSE"])
TEXTS = st.sampled_from(["straße", "STRASSE", "Strasse", "eID", "EID", "ǆ", "ǅ", "", "x"]) | st.text(
    max_size=3
)
NON_TEXTS = (
    st.booleans()
    | st.integers(-2, 2)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.none()
    | st.lists(st.integers(0, 1) | TEXTS, max_size=2)
)
VALUES = TEXTS | NON_TEXTS
PRESENTATIONS = st.dictionaries(NAMES, VALUES, min_size=1, max_size=5)


def catalog_of(presentations) -> Catalog:
    entries = {
        f"s{i:03d}": ServiceDescriptor(f"s{i:03d}", p, ("x",), None, Path("."))
        for i, p in enumerate(presentations)
    }
    return Catalog(source_dir=Path("."), entries=entries)


def scan(catalog: Catalog, matches) -> list[str]:
    """Brute force: test every descriptor with the match rule."""
    return [d.descriptor_id for d in catalog.entries.values() if matches(d.presentation)]


class TestValueIndex:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(PRESENTATIONS, max_size=12), NAMES, VALUES)
    def test_yellow_agrees_with_a_scan(self, presentations, attribute, value):
        catalog = catalog_of(presentations)
        query = YellowQuery(attribute, value)
        got = [d.descriptor_id for d in list_matching(catalog, query)]
        assert got == scan(catalog, lambda name: yellow_match(query, name))

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(PRESENTATIONS, min_size=1, max_size=12), st.data())
    def test_white_agrees_with_a_scan(self, presentations, data):
        catalog = catalog_of(presentations)
        # Half the queries are copied from a descriptor, so that they hit.
        source = data.draw(st.sampled_from(presentations))
        planted = data.draw(st.dictionaries(st.sampled_from(sorted(source)), st.none()))
        query = {a: source[a] for a in planted}
        query.update(data.draw(st.dictionaries(NAMES, VALUES, min_size=0 if query else 1)))
        got = [d.descriptor_id for d in list_matching_white(catalog, query)]
        assert got == scan(catalog, lambda name: white_match(query, name))

    def test_bucket_holds_a_descriptor_once_in_id_order(self):
        catalog = catalog_of(
            [{"Purpose": "auth", "purpose": "AUTH"}, {"x": 1}, {"PURPOSE": "Auth"}]
        )
        bucket = catalog.bucket("purpose", "auth")
        assert [d.descriptor_id for d in bucket] == ["s000", "s002"]
        assert isinstance(bucket, tuple)

    def test_narrow_lookups_examine_only_their_bucket(self, monkeypatch):
        rng = random.Random(5)
        presentations = [
            {
                "Purpose": f"purpose-{rng.randrange(5)}",
                "Device": f"device-{i:05d}",
                "Vendor": f"vendor-{rng.randrange(2000):04d}",
            }
            for i in range(10_000)
        ]
        catalog = catalog_of(presentations)
        examined: list[dict] = []

        def counting(rule):
            def wrapped(query, name):
                examined.append(name)
                return rule(query, name)

            return wrapped

        monkeypatch.setattr(psvc.registry, "yellow_match", counting(yellow_match))
        monkeypatch.setattr(psvc.registry, "white_match", counting(white_match))

        vendor = presentations[4321]["Vendor"]
        hits = list_matching(catalog, YellowQuery("VENDOR", vendor.upper()))
        assert 0 < len(hits) < 20
        assert examined == []

        bucket = catalog.bucket("Device", "device-04321")
        hits = list_matching_white(catalog, {"Vendor": vendor, "Device": "device-04321"})
        assert [d.descriptor_id for d in hits] == ["s4321"]
        assert len(examined) == len(bucket) == 1

        # A query without a string value still scans, with the same rule.
        examined.clear()
        assert list_matching(catalog, YellowQuery("Vendor", 7)) == []
        assert len(examined) == len(presentations)


# Case variants whose casefolds meet or part: ß/ẞ fold to "ss", İ to "i̇",
# final ς to σ.  Each name or value may recur across descriptors.
CASED = ["Straße", "STRASSE", "straẞe", "İd", "i̇d", "ID", "σοφός", "ΣΟΦΌΣ", "σοφόσ", "auth", "Auth"]
SHARED_NAMES = st.sampled_from(CASED) | st.text(min_size=1, max_size=3)
NESTED = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False) | st.sampled_from(CASED),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(CASED), inner, max_size=3),
    max_leaves=6,
)
# Equal in Python but not in JSON type: sharing must never swap one for another.
ALIKE = st.sampled_from([0, 1, 0.0, -0.0, 1.0, False, True])
SHARED_VALUES = st.sampled_from(CASED) | st.text(max_size=3) | ALIKE | NESTED


def same(a, b) -> bool:
    """Equal, with the same types and key order all the way down."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return a == b


def scanned_bucket(catalog: Catalog, attribute: str, value: str) -> tuple[ServiceDescriptor, ...]:
    """Brute force: every descriptor with this string value under this attribute, both without case."""
    return tuple(
        d
        for d in catalog.entries.values()
        if any(
            a.casefold() == attribute.casefold() and isinstance(v, str) and v.casefold() == value.casefold()
            for a, v in d.presentation.items()
        )
    )


class TestSharing:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.lists(
            st.tuples(
                st.dictionaries(SHARED_NAMES, SHARED_VALUES, min_size=1, max_size=5),
                st.sampled_from([["x"], ["x", "-v"], ["y"]]),
                st.sampled_from([None, "/srv/a", "/srv/b"]),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_sharing_changes_no_descriptor(self, tmp_path_factory, descriptors):
        directory = tmp_path_factory.mktemp("shared")
        for i, (presentation, cmd, workdir) in enumerate(descriptors):
            write_descriptor(directory, f"s{i}", presentation, cmd=cmd, workdir=workdir)
        catalog = load_catalog(directory)
        assert len(catalog) == len(descriptors) and catalog.diagnostics == ()
        for i, desc in enumerate(catalog.entries.values()):
            parsed = json.loads((directory / f"s{i}.psd").read_text("utf-8"))["presentation"]
            assert same(desc.presentation, parsed)
            assert json.dumps(desc.presentation, ensure_ascii=True) == json.dumps(parsed, ensure_ascii=True)
            assert desc.cmd == tuple(descriptors[i][1])
            for attribute, value in desc.presentation.items():
                if isinstance(value, str):
                    for a, v in ((attribute, value), (attribute.upper(), value.upper()), (attribute, value.casefold())):
                        assert catalog.bucket(a, v) == scanned_bucket(catalog, a, v)
        for attribute in CASED:
            for value in CASED:
                assert catalog.bucket(attribute, value) == scanned_bucket(catalog, attribute, value)
        # Equal launchers and work dirs are one object each.
        assert len({id(d.cmd) for d in catalog.entries.values()}) == len({d.cmd for d in catalog.entries.values()})
        assert len({id(d.workdir) for d in catalog.entries.values()}) == len(
            {d.workdir for d in catalog.entries.values()}
        )

    def test_names_values_and_launchers_are_one_object_each(self, tmp_path):
        rng = random.Random(23)
        for i in range(2000):
            presentation = {
                "Purpose": f"purpose-{rng.randrange(5)}",
                "Device": f"device-{i:05d}",
                "Vendor": f"Vendor-{rng.randrange(400):03d}",
                "Region": f"region-{rng.randrange(40):02d}",
            }
            write_descriptor(tmp_path, f"svc-{i:05d}", presentation, cmd=["false"])
        catalog = load_catalog(tmp_path)
        entries = list(catalog.entries.values())
        assert len(entries) == 2000
        assert len({id(a) for d in entries for a in d.presentation}) == 4
        assert len({id(d.cmd) for d in entries}) == 1
        assert len({id(d.workdir) for d in entries}) == 1
        purposes = {d.presentation["Purpose"] for d in entries}
        assert len({id(d.presentation["Purpose"]) for d in entries}) == len(purposes) == 5
        # A value that casefolding leaves unchanged is its own bucket key.
        keys = {id(value) for index in catalog.by_value.values() for value in index}
        for d in entries:
            for attribute in ("Purpose", "Device", "Region"):
                assert id(d.presentation[attribute]) in keys
            assert id(d.presentation["Vendor"]) not in keys  # its key is the folded copy
            assert d in catalog.bucket("vendor", d.presentation["Vendor"])
        assert all(isinstance(b, tuple) for index in catalog.by_value.values() for b in index.values())
