"""Exact intersection pairings on free groups.

Core objects: reduced and cyclic words, marked metric graphs (charts with
exact rational lengths), rational geodesic currents, the two-route
intersection pairing, expanding graph-map dynamics, and one-edge free
splittings with their desk-scale graphs.  Each name lives in its module
(``from outerint.words import parse_word``), and importing the package
alone loads none of them.
"""

__version__ = "0.1.0"
