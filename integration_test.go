package mpcdash_test

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"testing"

	"mpcdash"
	"mpcdash/internal/mpd"
	"mpcdash/internal/trace"
)

// TestEndToEndDeterminism: the whole pipeline — generation, prediction,
// control, simulation, normalization — is reproducible for a fixed seed.
func TestEndToEndDeterminism(t *testing.T) {
	run := func() []float64 {
		video := mpcdash.EnvivioVideo()
		traces := mpcdash.GenerateDataset(mpcdash.DatasetHSDPA, 3, video.Duration()+120, 77)
		var qoes []float64
		for _, tr := range traces {
			res, err := mpcdash.Run(video, tr, mpcdash.RobustMPC, mpcdash.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			qoes = append(qoes, res.QoE, res.NormQoE)
		}
		return qoes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestMPDDecodeFuzz: malformed manifests must error out, not panic.
func TestMPDDecodeFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	seeds := []string{
		"<MPD>",
		"<MPD><Period></Period></MPD>",
		"<?xml version=\"1.0\"?><MPD type=\"static\"><Period><AdaptationSet segmentCount=\"-1\"/></Period></MPD>",
	}
	for i := 0; i < 500; i++ {
		base := seeds[i%len(seeds)]
		// Random mutation: flip a byte.
		b := []byte(base)
		if len(b) > 0 {
			b[rng.Intn(len(b))] = byte(rng.Intn(256))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Decode panicked on %q: %v", string(b), r)
				}
			}()
			_, _ = mpd.Decode(b)
		}()
	}
}

// TestTraceReadFuzz: arbitrary text never panics the trace parser.
func TestTraceReadFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	alphabet := []byte("0123456789. -#ab\n\t")
	for i := 0; i < 1000; i++ {
		n := rng.Intn(80)
		buf := make([]byte, n)
		for j := range buf {
			buf[j] = alphabet[rng.Intn(len(alphabet))]
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trace.Read panicked on %q: %v", string(buf), r)
				}
			}()
			_, _ = trace.Read(bytesReader(buf), "fuzz")
			_, _ = trace.ReadMahimahi(bytesReader(buf), "fuzz", 500)
		}()
	}
}

// TestNormalizedQoEAtMostOne across a sample of sessions and datasets: the
// offline optimum really does bound the online algorithms.
func TestNormalizedQoEAtMostOne(t *testing.T) {
	video := mpcdash.EnvivioVideo()
	for _, kind := range []mpcdash.Dataset{mpcdash.DatasetFCC, mpcdash.DatasetSynthetic} {
		traces := mpcdash.GenerateDataset(kind, 3, video.Duration()+120, 55)
		for _, a := range []mpcdash.Algorithm{mpcdash.BB, mpcdash.RobustMPC} {
			for _, tr := range traces {
				res, err := mpcdash.Run(video, tr, a, mpcdash.DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				if res.NormQoE > 1.05 {
					t.Errorf("%s on %s: n-QoE %v > 1", a, tr.Name(), res.NormQoE)
				}
				if math.IsNaN(res.NormQoE) {
					t.Errorf("%s on %s: n-QoE NaN", a, tr.Name())
				}
			}
		}
	}
}

// bytesReader adapts a byte slice to io.Reader without importing bytes at
// every call site.
func bytesReader(b []byte) io.Reader { return bytes.NewReader(b) }
