package lf

import (
	"context"
	"testing"

	"repro/internal/apps"
	"repro/internal/corpus"
	"repro/internal/dfs"
	"repro/internal/mapreduce"
)

// BenchmarkFusedTopic is the topic vote job on its own: 8,000 generated
// documents staged in 16 shards, the ten topic functions, one simulated
// compute node (Parallelism 1), so ns/doc is one core's cost per document of
// decode, vote, emit and the vote store's append. Staging each pass's fresh
// FS is outside the timer.
func BenchmarkFusedTopic(b *testing.B) {
	docs, err := corpus.GenerateTopic(corpus.DefaultTopicSpec(8000, 7))
	if err != nil {
		b.Fatal(err)
	}
	recs := make([][]byte, len(docs))
	for i, d := range docs {
		if recs[i], err = d.Marshal(); err != nil {
			b.Fatal(err)
		}
	}
	lfs := apps.TopicLFs(nil, 0.02, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		fs := dfs.NewMem()
		if err := mapreduce.WriteInput(fs, "in/docs", recs, 16); err != nil {
			b.Fatal(err)
		}
		e := docExecutor(fs)
		e.Parallelism = 1
		b.StartTimer()
		if _, _, err := e.ExecuteContext(context.Background(), lfs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(docs)), "ns/doc")
}
