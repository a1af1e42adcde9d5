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
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .protocol import YellowQuery, white_match, yellow_match

log = logging.getLogger(__name__)

DESCRIPTOR_SUFFIX = ".psd"
BROKER_DESCRIPTOR = "broker"


class DescriptorError(ValueError):
    """A descriptor file that cannot be used; .problem says why."""

    def __init__(self, problem: str, message: str):
        super().__init__(message)
        self.problem = problem  # "json" | "shape" | "launcher" | "presentation"


class CatalogDirError(OSError):
    """The descriptor directory is missing or unreadable."""


@dataclass(frozen=True)
class ServiceDescriptor:
    """One catalog entry: identity, how to reach it, and its name."""

    descriptor_id: str
    presentation: dict[str, Any]
    cmd: tuple[str, ...] | None
    url: str | None
    workdir: Path

    @property
    def is_remote(self) -> bool:
        return self.url is not None


@dataclass(frozen=True)
class Catalog:
    """Immutable snapshot of one descriptor directory."""

    source_dir: Path
    entries: dict[str, ServiceDescriptor]
    # (file name, reason) for every file that was skipped
    diagnostics: tuple[tuple[str, str], ...] = ()

    def __len__(self) -> int:
        return len(self.entries)


def validate_descriptor(
    text: str | bytes,
    *,
    descriptor_id: str,
    default_dir: Path,
) -> ServiceDescriptor:
    """Check one descriptor document and build its catalog entry."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DescriptorError("json", f"not UTF-8: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
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
        if not isinstance(url, str) or not url.startswith(("http://", "https://")):
            raise DescriptorError("launcher", "url must start with http:// or https://")

    if not presentation:
        raise DescriptorError("presentation", "presentation must not be empty")
    if not all(isinstance(k, str) and k for k in presentation):
        raise DescriptorError("presentation", "attribute names must be non-empty strings")

    workdir = configuration.get("dir")
    if workdir is not None and not isinstance(workdir, str):
        raise DescriptorError("shape", "dir must be a string when present")

    return ServiceDescriptor(
        descriptor_id=descriptor_id,
        presentation=dict(presentation),
        cmd=cmd,
        url=url,
        workdir=Path(workdir) if workdir else default_dir,
    )


def load_catalog(directory: Path | str) -> Catalog:
    """Load every usable ``*.psd`` in a directory, skipping broken ones."""
    directory = Path(directory)
    try:
        files = sorted(directory.iterdir())
    except OSError as exc:
        raise CatalogDirError(f"cannot read {directory}: {exc}") from None

    entries: dict[str, ServiceDescriptor] = {}
    diagnostics: list[tuple[str, str]] = []
    for path in files:
        if path.suffix != DESCRIPTOR_SUFFIX or not path.is_file():
            continue
        descriptor_id = path.stem
        if descriptor_id == BROKER_DESCRIPTOR:
            continue
        try:
            entries[descriptor_id] = validate_descriptor(
                path.read_bytes(), descriptor_id=descriptor_id, default_dir=directory
            )
        except DescriptorError as exc:
            diagnostics.append((path.name, str(exc)))
            log.warning("skipping %s: %s", path.name, exc)
    return Catalog(source_dir=directory, entries=entries, diagnostics=tuple(diagnostics))


def list_matching(catalog: Catalog, query: YellowQuery) -> list[ServiceDescriptor]:
    """All services matching a yellow query, ordered by descriptor id."""
    return [
        catalog.entries[sid]
        for sid in sorted(catalog.entries)
        if yellow_match(query, catalog.entries[sid].presentation)
    ]


def list_matching_white(catalog: Catalog, query: dict[str, Any]) -> list[ServiceDescriptor]:
    """All services matching a white query, ordered by descriptor id."""
    return [
        catalog.entries[sid]
        for sid in sorted(catalog.entries)
        if white_match(query, catalog.entries[sid].presentation)
    ]

