package mdp

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"mpcdash/internal/model"
	"mpcdash/internal/trace"
)

// TestSolveGolden pins the actions of Solve's policies on one chain
// learned from a fixed HSDPA-like trace: the SHA-256 of every action of
// three policies, in order. The cases cover the three weight sets, two
// quality functions and a B_max small enough that the buffer-full wait
// of Eq. (4) fires. Value iteration may be restructured however it likes,
// but the actions it settles on must not move. The digest is amd64's,
// like the other float goldens.
func TestSolveGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	const want = "38358aec078965f6b744820ef14aa519ce01c528643176cdd9c9c0ec6bca7172"
	tr := trace.GenHSDPA(7, 600)
	obs := make([]float64, len(tr.Samples))
	for i, s := range tr.Samples {
		obs[i] = max(s.Kbps, 1)
	}
	chain, err := LearnChain(obs, 6)
	if err != nil {
		t.Fatal(err)
	}
	m := model.EnvivioManifest()
	h := sha256.New()
	for _, c := range []struct {
		w         model.Weights
		q         model.QualityFunc
		bufferMax float64
	}{
		{model.Balanced, model.QIdentity, 30},
		{model.AvoidInstability, model.QLog(m.Ladder.Min()), 10},
		{model.AvoidRebuffering, model.QIdentity, 6},
	} {
		p, err := Solve(m, c.w, c.q, chain, c.bufferMax, 40, 0.9, 300)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(p.actions)
		h.Write([]byte{0xff})
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("policy actions: sha256 %s, want %s", got, want)
	}
}
