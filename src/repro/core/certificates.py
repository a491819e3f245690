"""Ownership certificates (paper Sec. 5.1).

"The binding of a network user to the set of IP addresses owned and the
subsequent verification when using the traffic control service could be
implemented with digital certificates signed by the TCSP."

The cryptographic primitive is substituted (HMAC-SHA256 with the TCSP's
secret instead of asymmetric signatures — stdlib only, see DESIGN.md); the
protocol logic — issue after verification, verify on every control-plane
request, expire, revoke — is modelled in full.
"""

from __future__ import annotations

import hashlib
import hmac
import json
from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import CertificateError
from repro.net.addressing import Prefix

__all__ = ["OwnershipCertificate", "CertificateAuthority"]


@dataclass(frozen=True)
class OwnershipCertificate:
    """A signed binding (user, prefixes, validity window)."""

    user_id: str
    prefixes: tuple[Prefix, ...]
    issued_at: float
    expires_at: float
    issuer: str
    signature: bytes = field(repr=False, default=b"")

    def payload(self) -> bytes:
        """Canonical signed byte string."""
        body = {
            "user": self.user_id,
            "prefixes": sorted(str(p) for p in self.prefixes),
            "issued": round(self.issued_at, 6),
            "expires": round(self.expires_at, 6),
            "issuer": self.issuer,
        }
        return json.dumps(body, sort_keys=True).encode()

    def covers(self, prefix: Prefix) -> bool:
        """Is ``prefix`` inside the certified address space?"""
        return any(own.contains_prefix(prefix) for own in self.prefixes)


class CertificateAuthority:
    """Issues and verifies ownership certificates for one issuer identity."""

    def __init__(self, issuer: str, secret: bytes | None = None) -> None:
        self.issuer = issuer
        self._secret = secret or hashlib.sha256(issuer.encode()).digest()
        self._revoked: set[bytes] = set()

    def _sign(self, payload: bytes) -> bytes:
        return hmac.new(self._secret, payload, hashlib.sha256).digest()

    def issue(self, user_id: str, prefixes: Iterable[Prefix], now: float,
              validity: float = 365.0 * 86400.0) -> OwnershipCertificate:
        """Sign a certificate for ``user_id`` over ``prefixes``."""
        cert = OwnershipCertificate(
            user_id=user_id, prefixes=tuple(sorted(set(prefixes))),
            issued_at=now, expires_at=now + validity, issuer=self.issuer,
        )
        return OwnershipCertificate(
            user_id=cert.user_id, prefixes=cert.prefixes,
            issued_at=cert.issued_at, expires_at=cert.expires_at,
            issuer=cert.issuer, signature=self._sign(cert.payload()),
        )

    def verify(self, cert: OwnershipCertificate, now: float) -> None:
        """Raise :class:`CertificateError` unless the certificate is valid."""
        if cert.issuer != self.issuer:
            raise CertificateError(
                f"certificate issued by {cert.issuer!r}, expected {self.issuer!r}"
            )
        if not hmac.compare_digest(self._sign(cert.payload()), cert.signature):
            raise CertificateError("certificate signature invalid")
        if cert.signature in self._revoked:
            raise CertificateError("certificate revoked")
        if not (cert.issued_at <= now <= cert.expires_at):
            raise CertificateError(
                f"certificate outside validity window at t={now:.3f}"
            )

    def revoke(self, cert: OwnershipCertificate) -> None:
        """Blacklist a certificate (e.g. after an ownership transfer)."""
        self._revoked.add(cert.signature)
