"""`python -m hypsurf`: the command line of `hypsurf.cli`."""
from hypsurf.cli import main

raise SystemExit(main())
