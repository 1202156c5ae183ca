"""Reliable broadcast -- the primitive the paper's algorithms avoid.

Provided so the repository can implement the *prior-work baselines* the
paper compares against (Section I-B): registers whose writes go through a
reliable broadcast, paying extra server-to-server communication per write.
Two broadcasts are available:

* :class:`BrachaInstance` -- Bracha's classic 3-step protocol at
  ``n >= 3f + 1`` (SEND / ECHO / READY).
* :class:`IR2Instance` -- the Imbs-Raynal 2-step protocol at
  ``n >= 5f + 1`` (INIT / WITNESS), one communication step cheaper.

The package imports neither module: ``rb`` needs only Bracha's.
"""
