package nlp

// Sentiment lexicon for the sentiment scorer. A small, broad-purpose model
// of the kind the paper notes organizations keep on hand (§7.1 cites
// open-source sentiment models as weak-supervision candidates).

var positiveWords = []string{
	"amazing", "brilliant", "delightful", "stunning", "beloved", "thrilling",
	"wonderful", "superb", "acclaimed", "dazzling", "triumphant", "glamorous",
}

var negativeWords = []string{
	"terrible", "scandal", "dreadful", "flop", "lawsuit", "fraud",
	"outrage", "dismal", "bankrupt", "recall", "disaster", "plunge",
}
