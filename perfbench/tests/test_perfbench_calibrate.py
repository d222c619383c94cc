"""Reference-second timing."""

import time

import calibrate


def test_wall_time_less_sampling_is_scaled_by_the_loop_time(monkeypatch):
    """With a loop that takes a fixed 2 ms, an operation of 0.5 s wall
    time, sampled every 0.1 s, takes 0.5 s less the samples' time, times
    REFERENCE_S / 2 ms, in reference seconds."""
    monkeypatch.setattr(calibrate, "_loop", lambda n: time.sleep(n * 2e-6))
    clock = calibrate.Clock()
    result, wall, ref = clock.time(lambda: time.sleep(0.5) or "done")
    assert result == "done"
    assert 0.5 <= wall < 0.6
    assert len(clock._samples) >= calibrate.BEFORE + 3
    assert clock._spent > 0
    expected = (wall - clock._spent) * calibrate.REFERENCE_S / 2e-3
    assert abs(ref / expected - 1) < 0.1
    # after the call the handler is idle even if a signal is still pending
    spent, samples = clock._spent, len(clock._samples)
    clock._on_alarm(None, None)
    assert (clock._spent, len(clock._samples)) == (spent, samples)


def test_loop_time_leaves_out_the_slowest_tenth():
    assert calibrate.loop_time([1.0] * 9 + [100.0]) == 1.0
    assert calibrate.loop_time([1.0] * 19 + [50.0]) == 1.0
    assert calibrate.loop_time([1.0, 3.0]) == 2.0


def test_a_short_operation_borrows_the_latest_samples(monkeypatch):
    clock = calibrate.Clock()
    monkeypatch.setattr(calibrate, "_loop", lambda n: time.sleep(n * 2e-6))
    clock.time(lambda: time.sleep(3.0))  # more than WINDOW samples of 2 ms
    assert len(clock._samples) > calibrate.WINDOW
    monkeypatch.setattr(calibrate, "_loop", lambda n: time.sleep(n * 8e-6))
    _, wall, ref = clock.time(lambda: None)  # two samples of its own, 8 ms each
    assert len(clock._samples) == calibrate.BEFORE
    # 18 borrowed samples of 2 ms and 2 of 8 ms; the slowest tenth is dropped
    assert abs(ref / (wall * calibrate.REFERENCE_S / 2e-3) - 1) < 0.1
