package nlp_test

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/nlp"
)

// BenchmarkAnnotateTopic annotates the texts of the 8,000-document topic
// corpus (seed 7) — about 100 bytes and 14 tokens each, the text the topic
// vote job annotates — and reports ns/doc. BenchmarkAnnotate's fixed
// document is one 1.3 KB text of mixed case.
func BenchmarkAnnotateTopic(b *testing.B) {
	docs, err := corpus.GenerateTopic(corpus.DefaultTopicSpec(8000, 7))
	if err != nil {
		b.Fatal(err)
	}
	texts := make([]string, len(docs))
	for i, d := range docs {
		texts[i] = d.Text()
	}
	s := nlp.NewServer(0.02, 7)
	if err := s.Launch(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		if _, err := s.Annotate(texts[i%len(texts)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/doc")
}
