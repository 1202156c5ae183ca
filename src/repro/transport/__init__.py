"""The runtime wire: message codec, stream framing, authentication.

* :mod:`repro.transport.codec2` -- the binary serialization of every
  protocol message (the one wire format).
* :mod:`repro.transport.codec` -- length-prefixed framing for TCP streams.
* :mod:`repro.transport.auth` -- HMAC-SHA256 message authentication,
  realising the model's "digital signatures" assumption (Section II-A): a
  Byzantine server cannot impersonate another process.
"""

from repro.transport.auth import Authenticator, KeyChain
from repro.transport.codec import read_frame, write_frame

__all__ = [
    "read_frame",
    "write_frame",
    "Authenticator",
    "KeyChain",
]
