// The digests are exact float64 bits. Architectures, and amd64 at v3, that
// fuse a multiply and an add into one rounding compute other bits, so the
// test runs where the digests were recorded: amd64 below v3.

//go:build amd64 && !amd64.v3

package model

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// predictionDigest hashes the exact bits of every prediction.
func predictionDigest(preds []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, p := range preds {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(p))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestMLPMatchesGraphTrajectory pins the network's training trajectory bit
// for bit: each digest covers every prediction after training, and was
// recorded from the reverse-mode graph implementation this MLP replaced, so
// any change to initialization, batching, the backward pass, clipping or
// Adam's arithmetic shows up here.
func TestMLPMatchesGraphTrajectory(t *testing.T) {
	xs, ys := mlpDataset(257, 7, 21)
	for _, tc := range []struct {
		name   string
		hidden []int
		cfg    MLPTrainConfig
		want   string
	}{
		{"32x16-defaults", []int{32, 16}, MLPTrainConfig{}, "fac34e6798cb46da0ce6fd4304af5e020a5bfbe21d8ceb7f89c5d2d52bcecf43"},
		{"8", []int{8}, MLPTrainConfig{Epochs: 4, BatchSize: 16, LR: 0.01, Seed: 5}, "7eb69105c2bc1bbb4bf2f928aa10b2666dd283def2dceed92436f78b0b71d617"},
		{"no-hidden", nil, MLPTrainConfig{Epochs: 6, BatchSize: 20, LR: 0.02, Seed: 3}, "4e702fd1c2cd6002d364894ccefd4742d276ae49b7093010e03d5ec9a024bb9e"},
		{"5x4x3-batch33", []int{5, 4, 3}, MLPTrainConfig{Epochs: 5, BatchSize: 33, LR: 0.01, Seed: 7}, "98628562ac97d39c7a7edbb681954efaa3ff42c43b2737aeee6cacce0eb3ac37"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := NewMLP(len(xs[0]), tc.hidden, 11)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Train(xs, ys, tc.cfg); err != nil {
				t.Fatal(err)
			}
			preds, err := m.Predict(xs)
			if err != nil {
				t.Fatal(err)
			}
			if got := predictionDigest(preds); got != tc.want {
				t.Errorf("prediction digest %s, want %s", got, tc.want)
			}
		})
	}
}
