"""Analog tactile-recognition stack built from transistor-memristor-sensor cells.

The package splits into device physics (``devices``), circuit solving
(``crossbar``), analog normalization blocks (``analog_blocks``), the input
alphabet (``braille``), the recognition pipeline (``pipeline``), a hardware
cost model (``cost_model``) and the command line front end (``cli``).
Import each name from the submodule that defines it.
"""

__version__ = "0.1.0"
