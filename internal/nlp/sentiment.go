package nlp

// Sentiment lexicon for the sentiment scorer. A small, broad-purpose model
// of the kind the paper notes organizations keep on hand (§7.1 cites
// open-source sentiment models as weak-supervision candidates).

var positiveWords = map[string]bool{
	"amazing": true, "brilliant": true, "delightful": true, "stunning": true,
	"beloved": true, "thrilling": true, "wonderful": true, "superb": true,
	"acclaimed": true, "dazzling": true, "triumphant": true, "glamorous": true,
}

var negativeWords = map[string]bool{
	"terrible": true, "scandal": true, "dreadful": true, "flop": true,
	"lawsuit": true, "fraud": true, "outrage": true, "dismal": true,
	"bankrupt": true, "recall": true, "disaster": true, "plunge": true,
}

// ScoreSentiment returns a score in [-1, 1]: (pos − neg) / (pos + neg),
// or 0 for neutral text.
func ScoreSentiment(text string) float64 { return scoreSentiment(Words(text)) }

// scoreSentiment is ScoreSentiment over a text's already-computed Words.
func scoreSentiment(words []string) float64 {
	pos, neg := 0, 0
	for _, w := range words {
		if positiveWords[w] {
			pos++
		}
		if negativeWords[w] {
			neg++
		}
	}
	if pos+neg == 0 {
		return 0
	}
	return float64(pos-neg) / float64(pos+neg)
}
