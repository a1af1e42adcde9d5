"""Catalog of personal-service descriptors kept in a per-user directory.

Every ``*.psd`` file in the directory (UTF-8 JSON) describes one
service:

    {"configuration": {"dir": "/srv/ccauth",
                       "cmd": ["java", "-jar", "CCPersonalService.jar"]},
     "presentation": {"Purpose": "authentication",
                      "Device": "Portuguese eID"}}

``configuration`` says how to reach the service: either ``cmd`` (an
argument vector launched on demand, in ``dir``, with the listening port
appended) or ``url`` (an already-running remote service), never both.
``presentation`` is the service name: a non-empty attribute object that
queries match against.  The descriptor id is the file name without the
extension.  ``broker.psd`` follows the same shape but launches the
broker itself, so it never enters the catalog.

A catalog indexes its entries by string attribute value when it is
built, so a lookup with a string value reads one bucket instead of
testing every descriptor.  The index only narrows the candidates:
``yellow_match`` and ``white_match`` stay the match rules, and every
listing comes out in descriptor id order.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import Any, NamedTuple

DESCRIPTOR_SUFFIX = ".psd"
BROKER_DESCRIPTOR = "broker"

# Lists and objects in a query or a presentation nest at most this deep.
# The envelope that carries either one nests it deeper still, so one that
# barely decodes may not encode.
MAX_QUERY_DEPTH = 32

# A descriptor file holds at most this many bytes: kit.MAX_LINE, one header
# line, so a larger file names a service no white reply could carry.
MAX_DESCRIPTOR_BYTES = 65536


class DescriptorError(ValueError):
    """A descriptor file that cannot be used; .problem says why."""

    def __init__(self, problem: str, message: str):
        super().__init__(message)
        self.problem = problem  # "size" | "json" | "shape" | "launcher" | "presentation"


class CatalogDirError(OSError):
    """The descriptor directory is missing or unreadable."""


class ServiceDescriptor(NamedTuple):
    """One catalog entry: identity, how to reach it, and its name."""

    descriptor_id: str
    presentation: dict[str, Any]
    cmd: tuple[str, ...] | None
    url: str | None
    workdir: Path

    @property
    def is_remote(self) -> bool:
        return self.url is not None


Bucket = tuple[ServiceDescriptor, ...]


class WireForms(dict):
    """Descriptor id -> presentation as envelope JSON, encoded at its first listing.

    The catalog never changes, so two threads that miss at once store equal strings.
    """

    def __init__(self, entries: dict[str, ServiceDescriptor]) -> None:
        super().__init__()
        self._entries = entries

    def __missing__(self, descriptor_id: str) -> str:
        form = json.dumps(self._entries[descriptor_id].presentation, ensure_ascii=True)
        self[descriptor_id] = form
        return form


class Catalog:
    """Snapshot of one descriptor directory, never changed once built.

    ``entries`` is ordered by descriptor id (load_catalog sorts once), and
    the matchers list hits in that order.  ``by_value`` is derived from
    ``entries`` on construction, one index per attribute: it maps
    ``attribute.casefold()`` to a dict from ``value.casefold()`` to the
    descriptors whose presentation has that string value, in entry order,
    each descriptor at most once per bucket even when two of its attribute
    names differ only in case.  A value that casefolding leaves unchanged
    is its own key.  load_catalog shares what descriptors have in common:
    equal attribute names, string values, ``cmd`` tuples and work dirs are
    one object each across the catalog, so 10,000 names that use four
    attributes hold four key strings, not 40,000.  ``wire``
    maps each descriptor id to its presentation as envelope JSON (ASCII,
    default separators), so a listing joins names instead of encoding them;
    a form is encoded when its id is first listed, so names never listed
    cost nothing.  ``diagnostics`` holds (file name, reason) for every file
    skipped.
    """

    def __init__(
        self,
        source_dir: Path,
        entries: dict[str, ServiceDescriptor],
        diagnostics: tuple[tuple[str, str], ...] = (),
    ) -> None:
        self.source_dir = source_dir
        self.entries = entries
        self.diagnostics = diagnostics
        self.wire = WireForms(entries)
        # A bucket stays a tuple until a second descriptor joins it: most values name one.
        buckets: dict[str, dict[str, Bucket | list[ServiceDescriptor]]] = {}
        # Few attribute names recur across the whole catalog: find each one's index once.
        indexes: dict[str, dict[str, Bucket | list[ServiceDescriptor]]] = {}
        for desc in self.entries.values():
            for attr, value in desc.presentation.items():
                if not isinstance(value, str):
                    continue
                index = indexes.get(attr)
                if index is None:
                    index = indexes[attr] = buckets.setdefault(sys.intern(attr.casefold()), {})
                folded = value.casefold()
                bucket = index.get(folded)
                if bucket is None:
                    index[value if folded == value else folded] = (desc,)
                # Descriptors arrive in order, so a repeat can only be the last one.
                elif bucket[-1] is not desc:
                    if type(bucket) is tuple:
                        index[folded] = bucket = list(bucket)
                    bucket.append(desc)
        self.by_value = {a: {v: tuple(b) for v, b in vs.items()} for a, vs in buckets.items()}

    def __len__(self) -> int:
        return len(self.entries)

    def bucket(self, attribute: str, value: str) -> Bucket:
        """Descriptors with this string value under this attribute, both without case."""
        index = self.by_value.get(attribute.casefold())
        return index.get(value.casefold(), ()) if index else ()


class YellowQuery(NamedTuple):
    """Single presentation attribute queried case-insensitively."""

    attribute: str
    value: Any

    def as_object(self) -> dict[str, Any]:
        return {self.attribute: self.value}


def json_equal(a: Any, b: Any) -> bool:
    """Structural equality with JSON typing (bool never equals a number)."""
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool) and a == b
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(json_equal(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(json_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a == b
    return type(a) is type(b) and a == b


def yellow_match(query: YellowQuery, name: dict[str, Any]) -> bool:
    """True when the name has the queried attribute with the queried value.

    The attribute name always compares case-insensitively; so does the
    value when both sides are strings.  Any other value type must be
    structurally equal.
    """
    wanted = query.attribute.casefold()
    for attr, value in name.items():
        if attr.casefold() != wanted:
            continue
        if isinstance(query.value, str) and isinstance(value, str):
            if query.value.casefold() == value.casefold():
                return True
        elif json_equal(query.value, value):
            return True
    return False


def white_match(query: dict[str, Any], name: dict[str, Any]) -> bool:
    """True when every query attribute appears in the name with an equal value.

    Comparison is case-sensitive; the query must not be empty.
    """
    if not query:
        raise ValueError("white query must not be empty")
    return all(attr in name and json_equal(value, name[attr]) for attr, value in query.items())


def _nested_deeper(value: Any, room: int) -> bool:
    """True when lists and objects in `value` nest more than `room` levels."""
    if isinstance(value, dict):
        value = list(value.values())
    if not isinstance(value, list):
        return False
    return room == 0 or any(_nested_deeper(item, room - 1) for item in value)


def validate_descriptor(
    text: str | bytes,
    *,
    descriptor_id: str,
    default_dir: Path,
) -> ServiceDescriptor:
    """Check one descriptor document and build its catalog entry."""
    return _descriptor(text, descriptor_id, default_dir, {})


def _descriptor(
    text: str | bytes, descriptor_id: str, default_dir: Path, shared: dict[Any, Any]
) -> ServiceDescriptor:
    """validate_descriptor, with each attribute name, string value, cmd and work dir
    replaced by the equal object in `shared`, which keeps each new one."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DescriptorError("json", f"not UTF-8: {exc}") from None
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # a number over 4,300 digits is a ValueError
        raise DescriptorError("json", f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise DescriptorError("shape", "top level must be a JSON object")

    configuration = doc.get("configuration")
    presentation = doc.get("presentation")
    if not isinstance(configuration, dict):
        raise DescriptorError("shape", "missing configuration object")
    if not isinstance(presentation, dict):
        raise DescriptorError("shape", "missing presentation object")

    cmd = configuration.get("cmd")
    url = configuration.get("url")
    if (cmd is None) == (url is None):
        raise DescriptorError("launcher", "configuration needs exactly one of cmd or url")
    if cmd is not None:
        if (
            not isinstance(cmd, list)
            or not cmd
            or not all(isinstance(a, str) and a for a in cmd)
        ):
            raise DescriptorError("launcher", "cmd must be a non-empty list of strings")
        cmd = tuple(cmd)
    if url is not None:
        # The proxy forwards plain http only; an https service could never be invoked.
        if not isinstance(url, str) or not url.startswith("http://"):
            raise DescriptorError("launcher", "url must start with http://")

    if not presentation:
        raise DescriptorError("presentation", "presentation must not be empty")
    if "" in presentation:  # JSON object keys are always strings
        raise DescriptorError("presentation", "attribute names must be non-empty strings")
    # The document's own object takes one bracket, so a text with at most
    # MAX_QUERY_DEPTH of them cannot nest a presentation too deep; brackets
    # inside strings only send it to the walk.
    if text.count("{") + text.count("[") > MAX_QUERY_DEPTH and _nested_deeper(
        presentation, MAX_QUERY_DEPTH
    ):
        raise DescriptorError("presentation", f"nested deeper than {MAX_QUERY_DEPTH} levels")

    workdir = configuration.get("dir")
    if workdir is not None and not isinstance(workdir, str):
        raise DescriptorError("shape", "dir must be a string when present")

    workdir = default_dir / workdir if workdir else default_dir  # relative: to the .psd's dir
    share = shared.setdefault
    return ServiceDescriptor(
        descriptor_id,
        {share(a, a): share(v, v) if isinstance(v, str) else v for a, v in presentation.items()},
        cmd if cmd is None else share(cmd, cmd),
        url,
        share(workdir, workdir),
    )


def read_bounded(path: str | os.PathLike[str], size: int) -> bytes:
    """At most `size` bytes from the start of a file, in one read."""
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)  # a FIFO reads as empty, never waits
    try:
        return os.read(fd, size)
    finally:
        os.close(fd)


def read_descriptor(path: str | os.PathLike[str]) -> bytes:
    """A descriptor file's bytes, from one read of at most one byte over
    MAX_DESCRIPTOR_BYTES; DescriptorError("size") past the bound."""
    data = read_bounded(path, MAX_DESCRIPTOR_BYTES + 1)
    if len(data) > MAX_DESCRIPTOR_BYTES:
        raise DescriptorError("size", f"larger than {MAX_DESCRIPTOR_BYTES} bytes")
    return data


def load_catalog(directory: Path | str) -> Catalog:
    """Load every usable ``*.psd`` in a directory, ordered by id; skip broken ones."""
    directory = Path(directory)
    cut = -len(DESCRIPTOR_SUFFIX)
    try:
        # os.scandir, not Path.iterdir: a 10k directory lists in half the time or less.
        with os.scandir(directory) as found:
            # Only the ids, which the entries keep: names and paths freed after the load
            # would leave holes among live objects.  A file named ".psd" alone has no id.
            ids = sorted(
                entry.name[:cut]
                for entry in found
                if entry.name.endswith(DESCRIPTOR_SUFFIX) and entry.name[:cut] and entry.is_file()
            )
    except OSError as exc:
        raise CatalogDirError(f"cannot read {directory}: {exc}") from None

    entries: dict[str, ServiceDescriptor] = {}
    diagnostics: list[tuple[str, str]] = []
    # Shared file by file: a pass after the load would find every duplicate in memory.
    shared: dict[Any, Any] = {}
    prefix = os.path.join(directory, "")
    for descriptor_id in ids:
        if descriptor_id == BROKER_DESCRIPTOR:
            continue
        name = descriptor_id + DESCRIPTOR_SUFFIX
        try:
            entries[descriptor_id] = _descriptor(
                read_descriptor(prefix + name), descriptor_id, directory, shared
            )
            continue
        except DescriptorError as exc:
            problem = str(exc)
        except OSError as exc:  # removed since the listing, or failing to read
            problem = f"unreadable: {exc}"
        diagnostics.append((name, problem))
        from .kit import Log  # here, not at the top: the catalog alone loads no kit

        Log(__name__).warning("skipping %s: %s", name, problem)
    return Catalog(source_dir=directory, entries=entries, diagnostics=tuple(diagnostics))


def list_matching(catalog: Catalog, query: YellowQuery) -> list[ServiceDescriptor]:
    """All services matching a yellow query, in catalog order."""
    if isinstance(query.value, str):
        # A string never equals a non-string, so the bucket is the answer.
        return list(catalog.bucket(query.attribute, query.value))
    return [d for d in catalog.entries.values() if yellow_match(query, d.presentation)]


def list_matching_white(catalog: Catalog, query: dict[str, Any]) -> list[ServiceDescriptor]:
    """All services matching a white query, in catalog order."""
    buckets = [catalog.bucket(a, v) for a, v in query.items() if isinstance(v, str)]
    # An exact string match is also a match without case, so the smallest
    # bucket holds every hit.
    candidates = min(buckets, key=len) if buckets else catalog.entries.values()
    return [d for d in candidates if white_match(query, d.presentation)]

