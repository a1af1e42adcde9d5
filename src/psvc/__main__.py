import sys

if sys.argv[1:3] == ["demo", "service"]:
    # A service launched on demand starts here, without compiling the CLI it never runs.
    from .demo.service import main

    raise SystemExit(main(sys.argv[3:]))

from .cli import main

raise SystemExit(main())
