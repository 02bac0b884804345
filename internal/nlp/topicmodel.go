package nlp

// Coarse semantic categories produced by the topic model. The paper's topic
// model "output semantic categorizations far too coarse-grained for the
// targeted task at hand, but which nonetheless could be used as effective
// negative labeling heuristics" (§3.1).
const (
	TopicEntertainment = "entertainment"
	TopicSports        = "sports"
	TopicTechnology    = "technology"
	TopicFinance       = "finance"
	TopicHealth        = "health"
	TopicTravel        = "travel"
	TopicFood          = "food"
	TopicShopping      = "shopping"
)

// AllTopics lists every coarse category in a stable order.
var AllTopics = [...]string{
	TopicEntertainment, TopicSports, TopicTechnology, TopicFinance,
	TopicHealth, TopicTravel, TopicFood, TopicShopping,
}

// TopicVocab maps each coarse category to its cue words. The corpus
// generator draws document text from these same distributions, which is what
// makes the topic model an informative (but coarse) signal.
var TopicVocab = map[string][]string{
	// Note: the celebrity-specific keywords ("paparazzi", "redcarpet",
	// "gossip", "spotlight") are deliberately NOT in this vocabulary — the
	// topic model is coarse-grained (§3.1): it recognizes entertainment,
	// not celebrity-hood.
	TopicEntertainment: {
		"premiere", "blockbuster", "award", "studio", "concert", "album",
		"backstage", "movie", "tour", "fans", "soundtrack", "sequel",
	},
	TopicSports: {
		"league", "season", "playoff", "coach", "stadium", "transfer",
		"championship", "tournament", "score", "injury", "roster", "defense",
	},
	TopicTechnology: {
		"startup", "software", "chip", "cloud", "platform", "api",
		"algorithm", "device", "battery", "silicon", "neural", "encryption",
	},
	TopicFinance: {
		"earnings", "dividend", "portfolio", "equity", "bond", "inflation",
		"quarterly", "revenue", "ipo", "hedge", "yield", "merger",
	},
	TopicHealth: {
		"clinic", "vaccine", "therapy", "nutrition", "diagnosis", "wellness",
		"cardio", "symptom", "trial", "dosage", "immune", "recovery",
	},
	TopicTravel: {
		"itinerary", "resort", "passport", "airline", "voyage", "landmark",
		"hostel", "cruise", "backpacking", "visa", "layover", "beachfront",
	},
	TopicFood: {
		"recipe", "sourdough", "roast", "umami", "bistro", "ferment",
		"saute", "garnish", "tasting", "brunch", "vegan", "pantry",
	},
	TopicShopping: {
		"discount", "checkout", "warranty", "bundle", "clearance", "retailer",
		"shipping", "catalog", "voucher", "restock", "bestseller", "cart",
	},
}

// TopicScore is one category with its normalized score.
type TopicScore struct {
	Topic string
	Score float64
}
