"""Which SPs may see or use which services.

``policy.json`` next to the descriptors:

    {"mode": "blacklist",
     "hosts": ["ads.example:*"],
     "services": {"cc-personal-service": {"mode": "whitelist",
                                          "hosts": ["bank.example:443"]}}}

Modes: ``allow_all`` (default when the file is absent), ``whitelist``
(only listed hosts may see the service), ``blacklist`` (listed hosts
may not).  Patterns are shell-style globs matched against the SP's
``host:port`` and bare host.  A ``services`` entry overrides the global
rule for one descriptor id.
"""

from __future__ import annotations

import fnmatch
import json
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

from ..kit import StartError
from ..registry import ServiceDescriptor, read_bounded

POLICY_FILE = "policy.json"
# policy.json holds at most this many bytes: room for host rules on thousands of services.
MAX_POLICY_BYTES = 1 << 20

MODE_ALLOW_ALL = "allow_all"
MODE_WHITELIST = "whitelist"
MODE_BLACKLIST = "blacklist"
_MODES = (MODE_ALLOW_ALL, MODE_WHITELIST, MODE_BLACKLIST)


class PolicyError(StartError):
    """policy.json present but unusable: the broker does not start."""


def _host_matches(sp_host: str, patterns: tuple[str, ...]) -> bool:
    bare = sp_host.rsplit(":", 1)[0] if ":" in sp_host else sp_host
    return any(
        fnmatch.fnmatchcase(sp_host, pat) or fnmatch.fnmatchcase(bare, pat)
        for pat in patterns
    )


class _Rule(NamedTuple):
    mode: str
    hosts: tuple[str, ...] = ()

    def allows(self, sp_host: str) -> bool:
        if self.mode == MODE_ALLOW_ALL:
            return True
        hit = _host_matches(sp_host, self.hosts)
        return hit if self.mode == MODE_WHITELIST else not hit


class AccessPolicy(NamedTuple):
    """Per-SP visibility rules with per-service overrides."""

    default: _Rule = _Rule(MODE_ALLOW_ALL)
    overrides: Mapping[str, _Rule] = MappingProxyType({})  # shared, so read-only

    def allows(self, sp_host: str, descriptor_id: str) -> bool:
        """May this SP see and use this service?"""
        rule = self.overrides.get(descriptor_id, self.default)
        return rule.allows(sp_host)

    def visible(self, sp_host: str, descriptors: Iterable[ServiceDescriptor]) -> list:
        """The descriptors `allows` lets this SP see, in order; the default rule runs once."""
        default, overrides = self.default.allows(sp_host), self.overrides
        return [
            d for d in descriptors
            if (overrides[d.descriptor_id].allows(sp_host) if d.descriptor_id in overrides else default)
        ]


def _parse_rule(doc: dict, where: str) -> _Rule:
    mode = doc.get("mode", MODE_ALLOW_ALL)
    if mode not in _MODES:
        raise PolicyError(f"{where}: unknown mode {mode!r}")
    hosts = doc.get("hosts", [])
    if not isinstance(hosts, list) or not all(isinstance(h, str) for h in hosts):
        raise PolicyError(f"{where}: hosts must be a list of patterns")
    return _Rule(mode, tuple(hosts))


def load_policy(ps_dir: Path | str) -> AccessPolicy:
    """Read policy.json from the descriptor directory; absent means allow all."""
    path = Path(ps_dir) / POLICY_FILE
    try:
        data = read_bounded(path, MAX_POLICY_BYTES + 1)  # never waits, as a FIFO would make it
    except FileNotFoundError:
        return AccessPolicy()
    except OSError as exc:
        raise PolicyError(f"cannot read {path.name}: {exc}") from None
    if len(data) > MAX_POLICY_BYTES:
        raise PolicyError(f"{path.name}: larger than {MAX_POLICY_BYTES} bytes")
    try:
        doc = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise PolicyError(f"cannot read {path.name}: {exc}") from None
    if not isinstance(doc, dict):
        raise PolicyError(f"{path.name}: top level must be an object")
    default = _parse_rule(doc, path.name)
    overrides: dict[str, _Rule] = {}
    services = doc.get("services", {})
    if not isinstance(services, dict):
        raise PolicyError(f"{path.name}: services must be an object")
    for sid, sub in services.items():
        if not isinstance(sub, dict):
            raise PolicyError(f"{path.name}: override for {sid!r} must be an object")
        overrides[sid] = _parse_rule(sub, f"{path.name}:{sid}")
    return AccessPolicy(default, overrides)
