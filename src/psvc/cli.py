"""Command line front end.

    psvc broker run          serve the per-user broker
    psvc proxy run           serve the redirection-aware proxy
    psvc lint FILE           check one service descriptor
    psvc demo sp             run the demo service provider
    psvc demo service PORT   run the demo authentication service
    psvc scenario NAME       drive an end-to-end flow and check it

The per-user directory is ~/.PS unless --ps-dir names another.  The
broker binds a free loopback port and publishes it in broker.ept there;
--port-file also writes each server's port to a file of its own.  A
server that cannot start prints one line, `cannot start: REASON`, and
exits with status 2.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import TYPE_CHECKING

# argparse, json and logging are imported where they are used: a
# launched demo service needs none of them, and each launch pays for what it loads.
if TYPE_CHECKING:
    import argparse

LOG_FORMAT = "%(asctime)s %(name)s %(levelname)s %(message)s"


def _parse_listen(text: str) -> tuple[str, int]:
    import argparse

    host, _, port = text.rpartition(":")
    if not host or not (port.isascii() and port.isdigit()) or int(port) > 65535:
        raise argparse.ArgumentTypeError(f"expected HOST:PORT, port 0-65535, got {text!r}")
    return host, int(port)


def _json_object(text: str) -> dict:
    import argparse
    import json

    value = json.loads(text)  # argparse reports a ValueError as a usage error too
    if not isinstance(value, dict):
        raise argparse.ArgumentTypeError(f"expected a JSON object, got {text!r}")
    return value


# -- subcommands ------------------------------------------------------------


def _cmd_broker_run(args: argparse.Namespace) -> int:
    from .broker import BrokerServer
    from .kit import serve

    banner = f"broker at {{netloc}} serving {Path(args.ps_dir)}"
    return serve(lambda: BrokerServer(args.ps_dir), args.port_file, banner=banner)


def _cmd_proxy_run(args: argparse.Namespace) -> int:
    from .kit import serve
    from .proxy import PersonalServiceProxy

    at = f"proxy at {{netloc}} (per-user dir {args.ps_dir})"
    return serve(lambda: PersonalServiceProxy(args.ps_dir, args.listen), args.port_file, banner=at)


def _cmd_lint(args: argparse.Namespace) -> int:
    from .registry import DescriptorError, read_descriptor, validate_descriptor

    path = Path(args.file)
    try:
        desc = validate_descriptor(
            read_descriptor(path), descriptor_id=path.stem, default_dir=path.parent
        )
    except OSError as exc:
        print(f"{path}: unreadable: {exc}", file=sys.stderr)
        return 1
    except DescriptorError as exc:
        print(f"{path}: {exc.problem}: {exc}", file=sys.stderr)
        return 1
    kind = "remote" if desc.is_remote else "launchable"
    print(f"{path}: ok ({kind}, {len(desc.presentation)} presentation attribute(s))")
    return 0


def _cmd_demo_sp(args: argparse.Namespace) -> int:
    from .demo.sp import DemoSP
    from .kit import serve

    banner = "demo SP at {netloc}"
    return serve(lambda: DemoSP(args.listen, yp_query=args.yp_query), args.port_file, banner=banner)


def _cmd_demo_service(args: argparse.Namespace) -> int:
    from .demo.service import main as service_main

    return service_main(list(args.service_args))


def _cmd_scenario(args: argparse.Namespace) -> int:
    from .scenario import SCENARIOS, run_scenario

    if args.list:
        for name in SCENARIOS:
            print(name)
        return 0
    if not args.name:
        print("name a scenario or pass --list", file=sys.stderr)
        return 2
    names = list(SCENARIOS) if args.name == "all" else [args.name]
    worst = 0
    for name in names:
        if name not in SCENARIOS:
            print(f"unknown scenario {name!r}; try --list", file=sys.stderr)
            return 2
        result = run_scenario(name, write_golden=args.write_golden, keep=args.keep)
        state = "PASS" if result.passed else "FAIL"
        print(f"{state} {name} ({result.duration_s:.1f}s)")
        if result.workdir.exists():
            print(f"  kept {result.workdir}")
        for failure in result.failures:
            print(f"  {failure}")
        if args.show_transcript or not result.passed:
            for line in result.lines:
                print(f"  | {line}")
        if not result.passed:
            worst = 1
    return worst


# -- wiring -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    import argparse

    from .kit import LOOPBACK

    class Parser(argparse.ArgumentParser):
        """Takes flags only in full, so no flag stands in for another (--port for --port-file)."""

        def __init__(self, **kwargs) -> None:
            super().__init__(allow_abbrev=False, **kwargs)

    parser = Parser(prog="psvc", description=__doc__.splitlines()[0])
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    commands = parser.add_subparsers(dest="command", required=True)

    def add_ps_dir(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--ps-dir",
            default=str(Path.home() / ".PS"),
            help="per-user service directory (default: %(default)s)",
        )

    def add_address(p: argparse.ArgumentParser, port: int | None = None) -> None:
        """--port-file, and --listen unless `port` is None, by default `port` at LOOPBACK."""
        if port is not None:
            help = "HOST:PORT to listen on (default: %(default)s)"  # a string default is parsed
            p.add_argument("--listen", type=_parse_listen, default=f"{LOOPBACK}:{port}", help=help)
        p.add_argument("--port-file", help="write the chosen port here once listening")

    broker = commands.add_parser("broker", help="per-user broker")
    broker_sub = broker.add_subparsers(dest="broker_command", required=True)
    broker_run = broker_sub.add_parser("run", help="serve until SIGTERM")
    add_ps_dir(broker_run)
    add_address(broker_run)
    broker_run.set_defaults(func=_cmd_broker_run)

    proxy = commands.add_parser("proxy", help="redirection-aware HTTP proxy")
    proxy_sub = proxy.add_subparsers(dest="proxy_command", required=True)
    proxy_run = proxy_sub.add_parser("run", help="serve until SIGTERM")
    add_ps_dir(proxy_run)
    add_address(proxy_run, 3128)
    proxy_run.set_defaults(func=_cmd_proxy_run)

    lint = commands.add_parser("lint", help="validate a .psd service descriptor")
    lint.add_argument("file")
    lint.set_defaults(func=_cmd_lint)

    demo = commands.add_parser("demo", help="demo parties")
    demo_sub = demo.add_subparsers(dest="demo_command", required=True)

    demo_sp = demo_sub.add_parser("sp", help="service provider wanting eID sign-in")
    add_address(demo_sp, 8080)
    demo_sp.add_argument("--yp-query", type=_json_object, help="yellow-pages query (JSON object)")
    demo_sp.set_defaults(func=_cmd_demo_sp)

    demo_service = demo_sub.add_parser(
        "service", help="mock eID authenticator (port as last argument)"
    )
    demo_service.add_argument("service_args", nargs="*")
    demo_service.set_defaults(func=_cmd_demo_service)

    scenario = commands.add_parser("scenario", help="end-to-end flow checks")
    scenario.add_argument("name", nargs="?", help="scenario name, or 'all'")
    scenario.add_argument("--list", action="store_true", help="list scenario names")
    scenario.add_argument(
        "--write-golden",
        action="store_true",
        help="freeze this run's normalized transcript as the golden copy, if the run passed",
    )
    scenario.add_argument(
        "--keep", action="store_true", help="keep the working directory and print where it is"
    )
    scenario.add_argument(
        "--show-transcript", action="store_true", help="print the normalized transcript"
    )
    scenario.set_defaults(func=_cmd_scenario)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:2] == ["demo", "service"]:
        # A launched service's arguments are its own (the port comes last):
        # it starts without building the parser or configuring logging.
        from .demo.service import main as service_main

        return service_main(argv[2:])
    args = build_parser().parse_args(argv)
    if args.verbose:
        import logging

        logging.basicConfig(level=logging.DEBUG, format=LOG_FORMAT)
    else:  # a party that keeps no record never loads logging
        from .kit import Log

        Log.cli_format = LOG_FORMAT
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
