"""Test-suite configuration: stable hypothesis settings for CI."""

from hypothesis import HealthCheck, settings

# Experiments and simulators make individual examples comparatively slow;
# disable wall-clock deadlines and the too-slow health check so the suite
# is deterministic across machines and load conditions.
settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# CI's differential steps (``--hypothesis-profile=ci``) draw more examples;
# a test's own ``@settings(max_examples=...)`` still wins.
settings.register_profile("ci", parent=settings.get_profile("repro"),
                          max_examples=1000)
settings.load_profile("repro")
