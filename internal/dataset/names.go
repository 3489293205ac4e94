package dataset

// Name pools used by the population simulator. They echo the onomastic
// profile of 19th-century Scottish vital records: a small pool of highly
// concentrated first names and clan surnames for the Isle of Skye, a larger
// and flatter pool for the town of Kilmarnock. Sampling is Zipf-distributed,
// so the head of each list dominates, reproducing the ambiguity structure of
// Table 1 and Figure 2 of the paper.

var maleFirstNames = []string{
	"john", "donald", "alexander", "william", "james", "angus", "malcolm",
	"duncan", "neil", "roderick", "murdo", "archibald", "hugh", "kenneth",
	"norman", "allan", "charles", "ewen", "finlay", "lachlan", "peter",
	"robert", "thomas", "george", "david", "andrew", "colin", "dougald",
	"hector", "martin", "samuel", "walter", "adam", "daniel", "edward",
	"francis", "gilbert", "henry", "matthew", "michael", "patrick", "ronald",
	"simon", "stewart", "torquil", "gavin", "bruce", "craig", "douglas",
	"fergus", "graham", "ian", "keith", "lewis", "magnus", "niall", "owen",
	"quintin", "ross", "scott", "tavish", "urquhart", "victor", "wallace",
}

var femaleFirstNames = []string{
	"mary", "margaret", "catherine", "ann", "christina", "janet", "isabella",
	"flora", "marion", "jessie", "effie", "rachel", "jane", "elizabeth",
	"sarah", "agnes", "helen", "grace", "euphemia", "johanna", "kate",
	"barbara", "betsy", "cirsty", "dolina", "ellen", "fanny", "georgina",
	"henrietta", "iona", "joan", "kirsty", "lilias", "mabel", "nancy",
	"oighrig", "peggy", "rebecca", "susan", "teenie", "una", "violet",
	"wilhelmina", "alice", "beatrice", "charlotte", "dorothy", "emily",
	"frances", "gertrude", "harriet", "ida", "jemima", "katherine", "lucy",
	"martha", "nellie", "olive", "phoebe", "rose", "sophia", "tabitha",
}

var skyeSurnames = []string{
	"macdonald", "macleod", "mackinnon", "maclean", "nicolson", "mackenzie",
	"campbell", "beaton", "macrae", "ross", "matheson", "stewart", "gillies",
	"macpherson", "robertson", "grant", "fraser", "murchison", "macaskill",
	"lamont", "macinnes", "macintyre", "maclure", "martin", "morrison",
	"munro", "shaw", "ferguson", "buchanan", "cameron", "chisholm",
	"macarthur", "macaulay", "maccallum", "maccrimmon", "macdougall",
	"macfarlane", "macgregor", "macintosh", "maciver", "mackay", "maclachlan",
	"macmillan", "macnab", "macneil", "macquarrie", "macqueen", "macsween",
	"mactavish", "macwilliam",
}

var kilmarnockSurnames = []string{
	"smith", "wilson", "brown", "thomson", "stewart", "campbell", "anderson",
	"scott", "murray", "taylor", "clark", "mitchell", "young", "paterson",
	"walker", "watson", "morrison", "miller", "fraser", "davidson", "gray",
	"hamilton", "johnston", "kerr", "hunter", "duncan", "ferguson", "allan",
	"bell", "black", "boyd", "burns", "craig", "crawford", "cunningham",
	"dickson", "donaldson", "douglas", "fleming", "forbes", "gibson",
	"gordon", "graham", "grant", "hay", "henderson", "hill", "hughes",
	"jackson", "kelly", "kennedy", "king", "lindsay", "maxwell", "mcculloch",
	"mcdonald", "mcewan", "mcfadyen", "mcgill", "mcintyre", "mckay",
	"mckenzie", "mclaren", "mclean", "mcmillan", "mcneil", "milne", "moore",
	"muir", "munro", "orr", "park", "quinn", "ramsay", "reid", "ritchie",
	"robertson", "russell", "shaw", "simpson", "sinclair", "sloan", "snedden",
	"somerville", "steel", "sutherland", "tait", "todd", "turnbull", "ure",
	"wallace", "weir", "white", "wright", "yuill",
}

var skyeAddresses = []string{
	"portree", "kilmore", "dunvegan", "uig", "staffin", "broadford",
	"elgol", "carbost", "struan", "edinbane", "kensaleyre", "glendale",
	"waternish", "sleat", "kyleakin", "torrin", "luib", "sconser",
	"braes", "penifiler", "achachork", "borve", "skeabost", "bernisdale",
	"treaslane", "flashader", "greshornish", "colbost", "milovaig",
	"husabost", "ramasaig", "orbost", "roskhill", "vatten", "harlosh",
	"caroy", "bracadale", "ullinish", "fiscavaig", "portnalong",
}

var kilmarnockAddresses = []string{
	"king street", "portland street", "titchfield street", "high street",
	"soulis street", "fore street", "cheapside", "sandbed street",
	"green street", "west langlands street", "dean street",
	"wellington street", "hill street", "douglas street", "nelson street",
	"robertson place", "queen street", "princes street", "john finnie street",
	"dundonald road", "london road", "irvine road", "glencairn square",
	"riccarton", "bonnyton", "beansburn", "townholm", "crookedholm",
	"hurlford", "grange street", "bank street", "st marnock street",
	"strand street", "waterloo street", "woodstock street", "union street",
	"boyd street", "clark street", "east netherton street", "low glencairn street",
	"mill lane", "old mill road", "new mill road", "mclelland drive",
	"armour street", "samson avenue", "gibson street", "fulton lane",
	"menford lane", "croft street", "garden street", "richardland road",
	"welbeck street", "yorke place", "seright square", "wards place",
	"paxton street", "holmes road", "gilmour street", "dalry road",
}

var occupations = []string{
	"agricultural labourer", "crofter", "fisherman", "farm servant",
	"domestic servant", "weaver", "carpet weaver", "shoemaker", "tailor",
	"mason", "carpenter", "blacksmith", "miner", "coal miner", "engine keeper",
	"railway porter", "grocer", "merchant", "teacher", "minister",
	"seaman", "boat builder", "shepherd", "gamekeeper", "dairymaid",
	"dressmaker", "seamstress", "spinner", "general labourer", "ploughman",
	"cattleman", "quarrier", "slater", "joiner", "cooper", "baker",
	"butcher", "flesher", "vintner", "innkeeper", "carter", "coachman",
	"gardener", "clerk", "bookkeeper", "iron moulder", "brass finisher",
	"boilermaker", "engineer", "mechanic", "printer", "bookbinder",
	"tobacco spinner", "wool sorter", "factory worker", "mill worker",
	"bonnet maker", "hosier", "draper", "hawker",
}

var deathCauses = []string{
	"phthisis", "consumption", "bronchitis", "pneumonia", "whooping cough",
	"measles", "scarlet fever", "typhus fever", "typhoid fever",
	"diphtheria", "croup", "smallpox", "cholera", "diarrhoea", "dysentery",
	"debility", "old age", "senile decay", "heart disease", "dropsy",
	"apoplexy", "paralysis", "convulsions", "teething", "premature birth",
	"marasmus", "atrophy", "cancer", "cancer of stomach", "cancer of breast",
	"tumour", "jaundice", "liver disease", "kidney disease", "brights disease",
	"rheumatic fever", "erysipelas", "influenza", "asthma", "pleurisy",
	"peritonitis", "gastritis", "enteritis", "meningitis", "hydrocephalus",
	"accidental drowning", "fracture of skull", "burns", "killed by fall",
	"crushed by cart", "childbirth", "puerperal fever", "not known",
}

// nicknames maps canonical first names to their common variants; the error
// model substitutes a variant with a configured probability, modelling
// informal recording (e.g. a baptismal "margaret" appearing as "peggy" on a
// later certificate).
var nicknames = map[string][]string{
	"margaret":     {"maggie", "peggy", "meg"},
	"mary":         {"may", "molly"},
	"catherine":    {"kate", "katie", "cathy"},
	"christina":    {"kirsty", "teenie", "chrissie"},
	"isabella":     {"bella", "isa", "ella"},
	"elizabeth":    {"betsy", "lizzie", "beth"},
	"euphemia":     {"effie", "phemie"},
	"janet":        {"jessie", "jenny"},
	"johanna":      {"hannah"},
	"wilhelmina":   {"mina", "willa"},
	"john":         {"jock", "jack"},
	"james":        {"jamie", "jim"},
	"alexander":    {"alick", "sandy", "alex"},
	"donald":       {"dan", "donny"},
	"william":      {"willie", "bill"},
	"robert":       {"rab", "bob", "bert"},
	"archibald":    {"archie", "baldie"},
	"alexanderina": {"ina"},
	"angus":        {"gus"},
	"duncan":       {"dunc"},
	"kenneth":      {"kenny"},
	"roderick":     {"rory"},
	"thomas":       {"tam", "tom"},
	"andrew":       {"andy", "drew"},
	"patrick":      {"pat", "paddy"},
	"david":        {"davie"},
	"george":       {"geordie", "dod"},
	"hugh":         {"hughie", "shug"},
}

// Extended pools. Nineteenth-century Scottish registers show a long tail of
// double forenames ("mary ann", "john angus") and patronymic surnames
// ("donaldson", "jamieson"). The extended pools add these as distinct tail
// values behind the common single names, giving the name-frequency profile
// of Table 1 (hundreds of distinct values, heavily skewed head).
var (
	maleFirstNamesExt   = extendFirstNames(maleFirstNames)
	femaleFirstNamesExt = extendFirstNames(femaleFirstNames)
	skyeSurnamesExt     = extendSurnames(skyeSurnames)
	kilSurnamesExt      = extendSurnames(kilmarnockSurnames)
)

// extendFirstNames appends double-forename combinations of the base names
// after the singles, so Zipf sampling keeps singles common and doubles rare.
func extendFirstNames(base []string) []string {
	out := append([]string{}, base...)
	n := len(base)
	for i := 0; i < n && len(out) < 520; i++ {
		for j := 0; j < n && len(out) < 520; j += 7 {
			if i == (i+j)%n {
				continue
			}
			out = append(out, base[i]+" "+base[(i+j)%n])
		}
	}
	return out
}

// extendSurnames merges the regional pool with patronymic "-son" forms of
// common male names and the other region's surnames as a rarer tail.
func extendSurnames(base []string) []string {
	out := append([]string{}, base...)
	for _, m := range maleFirstNames {
		out = append(out, m+"son")
	}
	other := kilmarnockSurnames
	if len(base) > 0 && base[0] == kilmarnockSurnames[0] {
		other = skyeSurnames
	}
	seen := map[string]bool{}
	for _, s := range out {
		seen[s] = true
	}
	for _, s := range other {
		if !seen[s] {
			out = append(out, s)
			seen[s] = true
		}
	}
	return out
}
