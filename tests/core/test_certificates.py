"""Tests for ownership certificates."""

import pytest

from repro.core import CertificateAuthority
from repro.errors import CertificateError
from repro.net import Prefix

P = Prefix.parse


def issue(ca=None, now=0.0, validity=100.0):
    ca = ca or CertificateAuthority("TCSP")
    cert = ca.issue("acme", [P("10.1.0.0/16"), P("10.2.0.0/16")], now=now,
                    validity=validity)
    return ca, cert


class TestIssueVerify:
    def test_valid_certificate_verifies(self):
        ca, cert = issue()
        ca.verify(cert, now=50.0)

    def test_expired_certificate_rejected(self):
        ca, cert = issue(validity=10.0)
        with pytest.raises(CertificateError):
            ca.verify(cert, now=11.0)

    def test_not_yet_valid_rejected(self):
        ca, cert = issue(now=100.0)
        with pytest.raises(CertificateError):
            ca.verify(cert, now=50.0)

    def test_wrong_issuer_rejected(self):
        _, cert = issue()
        other = CertificateAuthority("OTHER")
        with pytest.raises(CertificateError):
            other.verify(cert, now=50.0)

    def test_tampered_prefixes_rejected(self):
        import dataclasses

        ca, cert = issue()
        forged = dataclasses.replace(cert, prefixes=(P("0.0.0.0/0"),))
        with pytest.raises(CertificateError):
            ca.verify(forged, now=50.0)

    def test_tampered_user_rejected(self):
        import dataclasses

        ca, cert = issue()
        forged = dataclasses.replace(cert, user_id="evil")
        with pytest.raises(CertificateError):
            ca.verify(forged, now=50.0)

    def test_revocation(self):
        ca, cert = issue()
        ca.verify(cert, now=1.0)
        ca.revoke(cert)
        with pytest.raises(CertificateError):
            ca.verify(cert, now=1.0)

    def test_same_issuer_name_different_secret_rejected(self):
        ca1 = CertificateAuthority("TCSP", secret=b"a" * 32)
        ca2 = CertificateAuthority("TCSP", secret=b"b" * 32)
        cert = ca1.issue("acme", [P("10.1.0.0/16")], now=0.0)
        with pytest.raises(CertificateError):
            ca2.verify(cert, now=1.0)


class TestCovers:
    def test_covers_exact_and_subprefix(self):
        _, cert = issue()
        assert cert.covers(P("10.1.0.0/16"))
        assert cert.covers(P("10.1.2.0/24"))
        assert not cert.covers(P("10.3.0.0/16"))
        assert not cert.covers(P("10.0.0.0/8"))  # broader than owned
