"""Exact intersection pairings on free groups.

Core objects: reduced and cyclic words, marked metric graphs (charts with
exact rational lengths), rational geodesic currents, the two-route
intersection pairing, expanding graph-map dynamics, and one-edge free
splittings with their desk-scale graphs.  Each name lives in its module
(``from outerint.words import parse_word``), and importing the package
alone loads none of them.  The few constants the ``oi`` option table
reads live here, so that building it loads no module it does not run.
"""

from typing import Literal, get_args

__version__ = "0.1.0"

#: The splitting graphs of :mod:`outerint.splittings`, in the order of
#: its neighbour-rule table and of the ``oi graph --flavor`` choices.
Flavor = Literal["F", "S", "Fstar", "Z", "I0"]
FLAVORS: tuple[Flavor, ...] = get_args(Flavor)

#: Default letter budget of one iterated image in :mod:`outerint.dynamics`.
DEFAULT_WORD_CAP = 10 ** 6
