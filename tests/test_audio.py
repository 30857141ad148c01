"""Tests for the log-mel frontend."""

import builtins
import hashlib
import io
import wave
from pathlib import Path

import numpy as np
import pytest
from scipy.signal import get_window, resample_poly

from mtda import audio
from mtda.audio import (
    CLIP_SAMPLES,
    FRAME_CHUNK,
    HOP,
    LOG_FLOOR,
    N_MELS,
    TARGET_RATE,
    WINDOW,
    AudioClip,
    FeatureTensor,
    band_center_freqs,
    hann_window,
    ingest,
    load_wav,
    logmel,
    mel_filterbank,
    resample,
    resample_filter,
)
from mtda.checkpoint import load_tensors
from mtda.errors import ContractError
from mtda.manifest import ManifestRow

from gradcheck import full_disk_after_half, traced_peak


def write_wav(path, samples, rate, channels=1):
    pcm = np.clip(np.asarray(samples) * 32767, -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(channels)
        wf.setsampwidth(2)
        wf.setframerate(rate)
        wf.writeframes(pcm.tobytes())


class TestResample:
    def test_identity_at_target_rate(self):
        x = np.random.default_rng(0).uniform(-0.5, 0.5, CLIP_SAMPLES)
        out = resample(AudioClip(x, 32000))
        np.testing.assert_array_equal(out.samples, x)

    def test_short_clip_zero_padded(self):
        x = np.ones(5 * 32000) * 0.1
        out = resample(AudioClip(x, 32000))
        assert len(out.samples) == CLIP_SAMPLES
        np.testing.assert_array_equal(out.samples[-160000:], np.zeros(160000))

    def test_long_clip_truncated(self):
        out = resample(AudioClip(np.zeros(12 * 32000) + 0.1, 32000))
        assert len(out.samples) == CLIP_SAMPLES

    def test_sine_survives_resampling(self):
        # 440 Hz at 16 kHz in; the dominant DFT bin must stay at 440 Hz.
        t = np.arange(10 * 16000) / 16000
        out = resample(AudioClip(0.5 * np.sin(2 * np.pi * 440 * t), 16000))
        assert out.sample_rate == 32000
        spectrum = np.abs(np.fft.rfft(out.samples))
        freqs = np.fft.rfftfreq(len(out.samples), d=1 / 32000)
        peak = freqs[np.argmax(spectrum)]
        bin_width = freqs[1] - freqs[0]
        assert abs(peak - 440.0) <= bin_width

    def test_empty_clip_rejected(self):
        with pytest.raises(ContractError):
            AudioClip(np.array([]), 32000)

    @pytest.mark.parametrize("rate,up,down", [(44100, 320, 441), (48000, 2, 3)])
    def test_cached_filter_matches_resample_poly(self, rate, up, down):
        x = np.random.default_rng(4).uniform(-0.9, 0.9, 3 * rate)
        expect = resample_poly(x, up, down)
        assert resample(AudioClip(x, rate)).samples[: len(expect)].tobytes() == expect.tobytes()
        assert resample_filter(up, down) is resample_filter(up, down)


class TestLogmel:
    def test_silence_gives_constant_log_floor(self):
        feat = logmel(AudioClip(np.zeros(CLIP_SAMPLES), 32000))
        np.testing.assert_allclose(feat.frames, np.log(LOG_FLOOR))

    def test_ten_second_clip_is_638_by_64(self):
        feat = logmel(AudioClip(np.zeros(CLIP_SAMPLES), 32000))
        assert feat.frames.shape == ((CLIP_SAMPLES - 1024) // HOP + 1, 64)
        assert feat.frames.shape == (638, 64)

    def test_wrong_rate_rejected(self):
        with pytest.raises(ContractError):
            logmel(AudioClip(np.zeros(48000), 48000))

    @pytest.mark.parametrize("band", [5, 20, 40])
    def test_sine_at_band_center_peaks_in_that_band(self, band):
        f0 = band_center_freqs()[band]
        t = np.arange(CLIP_SAMPLES) / 32000
        feat = logmel(AudioClip(0.5 * np.sin(2 * np.pi * f0 * t), 32000))
        assert int(np.argmax(feat.frames.mean(axis=0))) == band

    def test_deterministic_bytes(self):
        x = np.random.default_rng(1).uniform(-0.9, 0.9, CLIP_SAMPLES)
        a = logmel(AudioClip(x, 32000)).frames
        b = logmel(AudioClip(x.copy(), 32000)).frames
        assert a.tobytes() == b.tobytes()

    def test_hop_shift_moves_frames_by_one_row(self):
        x = np.random.default_rng(2).uniform(-0.9, 0.9, CLIP_SAMPLES)
        shifted = np.roll(x, -HOP)
        a = logmel(AudioClip(x, 32000)).frames
        b = logmel(AudioClip(shifted, 32000)).frames
        np.testing.assert_allclose(b[: 636], a[1:637], atol=1e-6)


def whole_clip_logmel(x, window, filters):
    """`logmel` as one pass over every frame of the clip at once."""
    n_frames = (len(x) - WINDOW) // HOP + 1
    idx = np.arange(WINDOW)[None, :] + HOP * np.arange(n_frames)[:, None]
    power = np.abs(np.fft.rfft(x[idx] * window, axis=1)) ** 2
    return np.log(power @ filters.T + LOG_FLOOR)


class TestChunkedLogmel:
    @pytest.mark.parametrize(
        "n_frames", [638, FRAME_CHUNK - 3, 2 * FRAME_CHUNK, 3 * FRAME_CHUNK + 1, 1],
        ids=["ten-seconds", "under-one-chunk", "two-chunks", "ragged-last-chunk", "one-frame"],
    )
    def test_matches_whole_clip_bits(self, n_frames):
        rng = np.random.default_rng(n_frames)
        x = rng.uniform(-0.9, 0.9, WINDOW + (n_frames - 1) * HOP + HOP // 3)
        frames = logmel(AudioClip(x, 32000)).frames
        assert frames.shape == (n_frames, N_MELS)
        assert frames.tobytes() == whole_clip_logmel(x, hann_window(), mel_filterbank()).tobytes()

    def test_ten_second_clip_peaks_below_6_mb(self):
        # a whole-clip pass holds the frame index, the frames, the windowed frames and the
        # rfft at once: about 18 MB for 638 frames
        clip = AudioClip(np.random.default_rng(5).uniform(-0.9, 0.9, CLIP_SAMPLES), 32000)
        logmel(clip)  # build the shared filters outside the trace
        _, peak = traced_peak(lambda: logmel(clip))
        assert peak < 6e6, peak


class TestSharedFilters:
    def test_cached_arrays_are_read_only(self):
        for shared in (mel_filterbank(), hann_window(), resample_filter(2, 3)):
            assert not shared.flags.writeable
            with pytest.raises(ValueError):
                shared[0] = 1.0

    def test_logmel_matches_freshly_built_filters(self):
        x = np.random.default_rng(3).uniform(-0.9, 0.9, CLIP_SAMPLES)
        expect = whole_clip_logmel(x, get_window("hann", 1024, fftbins=True), mel_filterbank.__wrapped__())
        assert logmel(AudioClip(x, 32000)).frames.tobytes() == expect.tobytes()


class TestMelFilterbank:
    def test_rows_non_negative(self):
        assert np.all(mel_filterbank() >= 0)

    def test_no_coverage_gap(self):
        fb = mel_filterbank()
        fft_freqs = np.fft.rfftfreq(1024, d=1 / 32000)
        total = fb.sum(axis=0)
        first_edge = fft_freqs[np.nonzero(fb[0])[0][0]]
        last_edge = fft_freqs[np.nonzero(fb[-1])[0][-1]]
        interior = (fft_freqs > first_edge) & (fft_freqs < last_edge)
        assert np.all(total[interior] > 0)


class TestIngest:
    def test_empty_manifest(self, tmp_path):
        result = ingest([], tmp_path / "feat")
        assert result.ok and result.rows == []

    def test_corrupt_file_recorded_not_fatal(self, tmp_path):
        good = tmp_path / "good.wav"
        write_wav(good, np.zeros(16000), 16000)
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"not a wav at all")
        rows = [
            ManifestRow(id="g", path=str(good), device="A", scene="park"),
            ManifestRow(id="b", path=str(bad), device="A", scene="park"),
        ]
        result = ingest(rows, tmp_path / "feat")
        assert not result.ok
        assert len(result.errors) == 1 and result.errors[0][0] == "b"
        assert result.rows[0].feature_path and not result.rows[1].feature_path

    def test_rerun_skips_up_to_date_outputs(self, tmp_path):
        path = tmp_path / "a.wav"
        write_wav(path, 0.2 * np.sin(np.linspace(0, 100, 32000)), 32000)
        rows = [ManifestRow(id="a", path=str(path), device="A", scene="metro")]
        out = tmp_path / "feat"
        import os

        first = ingest(rows, out)
        feature_file = first.rows[0].feature_path
        stamp = os.stat(feature_file).st_mtime_ns
        second = ingest(rows, out)
        assert second.rows[0].feature_path == feature_file
        assert os.stat(feature_file).st_mtime_ns == stamp

    def test_write_cut_short_is_extracted_by_the_next_ingest(self, tmp_path, monkeypatch):
        path = tmp_path / "a.wav"
        write_wav(path, 0.2 * np.sin(np.linspace(0, 100, 32000)), 32000)
        rows = [ManifestRow(id="a", path=str(path), device="A", scene="metro")]
        out = tmp_path / "feat"
        with monkeypatch.context() as patch:
            full_disk_after_half(patch)
            first = ingest(rows, out)
        assert first.errors == [("a", "[Errno 28] No space left on device")] and list(out.iterdir()) == []
        second = ingest(rows, out)
        assert second.ok and load_tensors(second.rows[0].feature_path)["features"].shape == (638, 64)

    def test_stores_float32_under_a_name_that_hashes_the_dtype(self, tmp_path):
        path = tmp_path / "a.wav"
        write_wav(path, 0.2 * np.sin(np.linspace(0, 100, 32000)), 32000)
        result = ingest([ManifestRow(id="a", path=str(path), device="A", scene="metro")], tmp_path / "feat")
        feature_path = result.rows[0].feature_path
        # the name a float64 file got, before the digest held the stored dtype
        old_digest = hashlib.sha256(
            path.read_bytes() + f"|{TARGET_RATE}|{WINDOW}|{HOP}|{N_MELS}|{LOG_FLOOR}".encode()
        ).hexdigest()[:16]
        assert result.ok and not feature_path.endswith(f"a_{old_digest}.mtt")
        assert load_tensors(feature_path)["features"].dtype == np.float32

    def test_feature_file_name_is_pinned(self, tmp_path):
        # the name hashes the WAV bytes, then the frontend parameters and the stored dtype;
        # a new name would send every existing ingest directory through extraction again
        path = tmp_path / "a.wav"
        write_wav(path, 0.2 * np.sin(np.linspace(0, 100, 32000)), 32000)
        result = ingest([ManifestRow(id="a", path=str(path), device="A", scene="metro")], tmp_path / "feat")
        assert Path(result.rows[0].feature_path).name == "a_77ed18661f02b510.mtt"

    def test_each_file_is_read_once(self, tmp_path, monkeypatch):
        paths = [tmp_path / f"{i}.wav" for i in range(2)]
        for i, path in enumerate(paths):
            write_wav(path, 0.1 * (i + 1) * np.sin(np.linspace(0, 100, 16000)), 16000)
        rows = [ManifestRow(id=f"r{i}", path=str(p), device="A", scene="park") for i, p in enumerate(paths)]
        opened, real_open = [], io.open

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)  # wave.open(str)
        monkeypatch.setattr(io, "open", counting_open)  # Path.read_bytes
        assert ingest(rows, tmp_path / "feat").ok
        assert sorted(name for name in opened if name.endswith(".wav")) == sorted(map(str, paths))

    def test_stereo_downmix(self, tmp_path):
        left = np.full(32000, 0.5)
        right = np.full(32000, -0.5)
        interleaved = np.empty(64000)
        interleaved[0::2] = left
        interleaved[1::2] = right
        write_wav(tmp_path / "st.wav", interleaved, 32000, channels=2)
        clip = load_wav(tmp_path / "st.wav", (tmp_path / "st.wav").read_bytes())
        assert np.abs(clip.samples).max() < 1e-3

    @pytest.mark.parametrize("channels", [2, 3])
    def test_downmix_is_numpys_channel_mean_bitwise(self, channels):
        pcm = np.random.default_rng(channels).integers(-32768, 32768, size=(4000, channels), dtype=np.int16)
        pcm[:3] = [[-32768] * channels, [32767] * channels, [-32768, 32767, 32767][:channels]]
        payload = io.BytesIO()
        with wave.open(payload, "wb") as wf:
            wf.setnchannels(channels)
            wf.setsampwidth(2)
            wf.setframerate(32000)
            wf.writeframes(pcm.astype("<i2").tobytes())
        clip = load_wav("mix.wav", payload.getvalue())
        assert clip.samples.tobytes() == (pcm.astype(np.float64) / 32768.0).mean(axis=1).tobytes()
