"""PCM audio to log-mel features.

Pipeline: resample to 32 kHz, pad/truncate to 10 s, Hann-windowed
magnitude-squared STFT (window 1024 samples = 32 ms, hop 500 samples; the
nominal 15.6 ms hop is 499.2 samples, rounded to an integer hop with 0.16%
deviation), 64 Slaney-style triangular mel filters spanning 0-16 kHz, and a
natural log with additive floor 1e-10. A 10 s clip yields 638 x 64 frames.
The power spectrum is built FRAME_CHUNK frames at a time into one array, so
the framing and FFT temporaries stay small whatever the clip length.
"""

from __future__ import annotations

import functools
import hashlib
import io
import wave
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from scipy.signal import firwin, get_window, resample_poly

from mtda import checkpoint
from mtda.errors import ContractError, check_file_name

TARGET_RATE = 32000
CLIP_SAMPLES = 10 * TARGET_RATE
WINDOW = 1024
HOP = 500
N_MELS = 64
LOG_FLOOR = 1e-10
FRAME_CHUNK = 32  # frames per FFT pass: 32 x 1024 float64 windowed samples are 256 KB


@dataclass
class AudioClip:
    samples: np.ndarray  # mono, values in [-1, 1]
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.size == 0:
            raise ContractError("audio clip is empty")
        if self.sample_rate <= 0:
            raise ContractError("sample rate must be positive")


@dataclass
class FeatureTensor:
    frames: np.ndarray  # time x 64


def resample(clip: AudioClip) -> AudioClip:
    """Resample to 32 kHz and fix the duration to exactly 10 s."""
    if clip.sample_rate == TARGET_RATE:
        samples = clip.samples
    else:
        from fractions import Fraction

        ratio = Fraction(TARGET_RATE, clip.sample_rate).limit_denominator(1000)
        up, down = ratio.numerator, ratio.denominator
        samples = resample_poly(clip.samples, up, down, window=resample_filter(up, down))
    if len(samples) >= CLIP_SAMPLES:
        samples = samples[:CLIP_SAMPLES]
    else:
        samples = np.concatenate([samples, np.zeros(CLIP_SAMPLES - len(samples))])
    return AudioClip(samples=samples, sample_rate=TARGET_RATE)


@functools.cache
def resample_filter(up: int, down: int) -> np.ndarray:
    """The low-pass FIR that `resample_poly` designs for a reduced `up`/`down`
    pair by default, designed once per pair and shared, so read-only."""
    m = max(up, down)
    h = firwin(2 * 10 * m + 1, 1 / m, window=("kaiser", 5.0))
    h.flags.writeable = False
    return h


@functools.cache
def mel_filterbank() -> np.ndarray:
    """Slaney-style triangular filters (linear below 1 kHz, log above), 0 to 16 kHz.

    Built once and shared, so the array is read-only."""

    def hz_to_mel(f):
        f = np.asarray(f, dtype=np.float64)
        lin = f / (200.0 / 3.0)
        log_region = f >= 1000.0
        log_mel = 15.0 + np.log(np.maximum(f, 1e-9) / 1000.0) / (np.log(6.4) / 27.0)
        return np.where(log_region, log_mel, lin)

    def mel_to_hz(m):
        m = np.asarray(m, dtype=np.float64)
        lin = m * (200.0 / 3.0)
        log_region = m >= 15.0
        log_hz = 1000.0 * np.exp((m - 15.0) * (np.log(6.4) / 27.0))
        return np.where(log_region, log_hz, lin)

    edges = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(TARGET_RATE / 2), N_MELS + 2))
    fft_freqs = np.fft.rfftfreq(WINDOW, d=1.0 / TARGET_RATE)
    fb = np.zeros((N_MELS, len(fft_freqs)))
    for m in range(N_MELS):
        lo, center, hi = edges[m], edges[m + 1], edges[m + 2]
        up = (fft_freqs - lo) / max(center - lo, 1e-12)
        down = (hi - fft_freqs) / max(hi - center, 1e-12)
        fb[m] = np.maximum(0.0, np.minimum(up, down))
    fb.flags.writeable = False
    return fb


@functools.cache
def hann_window() -> np.ndarray:
    """The periodic Hann analysis window, built once and shared, so read-only."""
    window = get_window("hann", WINDOW, fftbins=True)
    window.flags.writeable = False
    return window


def band_center_freqs() -> np.ndarray:
    fft_freqs = np.fft.rfftfreq(WINDOW, d=1.0 / TARGET_RATE)
    return np.array([fft_freqs[np.argmax(row)] for row in mel_filterbank()])


def logmel(clip: AudioClip) -> FeatureTensor:
    """Log-mel spectrogram of a 32 kHz clip."""
    if clip.sample_rate != TARGET_RATE:
        raise ContractError(f"logmel expects {TARGET_RATE} Hz input, got {clip.sample_rate}")
    x = clip.samples
    n_frames = (len(x) - WINDOW) // HOP + 1
    if n_frames < 1:
        raise ContractError("clip shorter than one analysis window")
    windows = np.lib.stride_tricks.sliding_window_view(x, WINDOW)[::HOP]
    power = np.empty((n_frames, WINDOW // 2 + 1))
    for lo in range(0, n_frames, FRAME_CHUNK):
        frames = windows[lo : lo + FRAME_CHUNK] * hann_window()
        power[lo : lo + FRAME_CHUNK] = np.abs(np.fft.rfft(frames, axis=1)) ** 2
    # one GEMM over the whole clip: BLAS rounds a product of few rows differently
    mel = power @ mel_filterbank().T
    return FeatureTensor(frames=np.log(mel + LOG_FLOOR))


def load_wav(path, payload) -> AudioClip:
    """Decode `payload`, the bytes of a 16-bit PCM RIFF WAV file; stereo is
    downmixed by channel averaging. `path` only names the file in errors."""
    with wave.open(io.BytesIO(payload), "rb") as wf:
        if wf.getsampwidth() != 2:
            raise ContractError(f"{path}: only 16-bit PCM WAV is supported")
        rate = wf.getframerate()
        n_channels = wf.getnchannels()
        raw = wf.readframes(wf.getnframes())
    data = np.frombuffer(raw, dtype="<i2").astype(np.float64)
    data /= 32768.0
    if n_channels > 1:
        # the channels summed in order, then divided by their count: numpy's
        # mean over each frame bit for bit (it sums fewer than 8 values in
        # order), without its strided reduction
        frames = data.reshape(-1, n_channels)
        data = frames[:, 0].copy()
        for c in range(1, n_channels):
            data += frames[:, c]
        data /= n_channels
    return AudioClip(samples=data, sample_rate=rate)


@dataclass
class IngestResult:
    rows: list
    errors: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.errors


def ingest(rows, out_dir) -> IngestResult:
    """Extract features for every manifest row; content-addressed, so reruns skip.

    Output names are the row id (a plain file name, or the row fails) and a
    hash of the source bytes, the frontend parameters and the stored dtype; an
    up-to-date output file is never rewritten, and none is left half-written.
    Each file is read once and the bytes hashed are the bytes decoded, so a
    name always matches its features' source. Per-row failures are recorded
    and do not abort the batch.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    updated, errors = [], []
    for row in rows:
        try:
            check_file_name("row id", row.id)  # it names the row's feature file
            if not row.path:
                raise ContractError("no WAV path")
            payload = Path(row.path).read_bytes()
            frontend = f"|{TARGET_RATE}|{WINDOW}|{HOP}|{N_MELS}|{LOG_FLOOR}|{checkpoint.FEATURE_DTYPE}"
            digest = hashlib.sha256(payload)  # updated, not concatenated: no copy of the WAV bytes
            digest.update(frontend.encode())
            feature_path = out_dir / f"{row.id}_{digest.hexdigest()[:16]}.mtt"
            if not feature_path.exists():
                clip = resample(load_wav(row.path, payload))
                feat = logmel(clip)
                checkpoint.save_features(feature_path, feat.frames)
            updated.append(replace(row, feature_path=str(feature_path)))
        except (ContractError, wave.Error, EOFError, OSError, ValueError) as exc:
            errors.append((row.id, str(exc)))
            updated.append(row)
    return IngestResult(rows=updated, errors=errors)
