"""MDS erasure-coding substrate (Section IV-A of the paper).

Implements an ``[n, k]`` Reed-Solomon code over GF(2^8) with a
Berlekamp-Welch decoder that corrects both *erasures* (missing coded
elements, e.g. slow or crashed servers) and *errors* (wrong coded elements,
e.g. Byzantine corruption or stale versions).  Reed-Solomon codes are MDS:
any ``k`` correct coded elements determine the value, and a decoder given
``N`` elements of which at most ``e`` are erroneous succeeds whenever
``N >= k + 2e`` -- exactly the property Lemma 4 of the paper relies on with
``k = n - 5f``, ``N = n - f`` and ``e = 2f``.

The modules, leaf first: :mod:`~repro.erasure.gf256` (the field),
:mod:`~repro.erasure.kernels` (bulk GF(256) column kernels),
:mod:`~repro.erasure.poly`, :mod:`~repro.erasure.rs` (the code and its
decoder), :mod:`~repro.erasure.element` (:class:`CodedElement`, what a
server stores) and :mod:`~repro.erasure.striping` (values of any length).
This package imports none of them: code that only carries coded
elements imports :mod:`~repro.erasure.element` alone.
"""
