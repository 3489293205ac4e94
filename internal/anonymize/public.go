package anonymize

// Embedded public name corpora standing in for the US voter database the
// paper maps sensitive names onto. Order encodes frequency rank (most
// common first).

// publicFemaleNames is the public corpus of female first names.
var publicFemaleNames = []string{
	"jessica", "ashley", "amanda", "brittany", "samantha", "taylor",
	"hannah", "alexis", "kayla", "madison", "sydney", "morgan", "paige",
	"chloe", "zoe", "mackenzie", "peyton", "savannah", "brooke", "autumn",
	"destiny", "faith", "hope", "skylar", "jasmine", "courtney", "whitney",
	"lindsay", "tiffany", "crystal", "amber", "heather", "melissa",
	"stephanie", "nicole", "danielle", "kristen", "lauren", "megan", "erin",
	"rachel", "rebecca", "sarah", "emily", "emma", "olivia", "sophia",
	"isabella", "mia", "charlotte", "amelia", "harper", "evelyn", "abigail",
	"ella", "scarlett", "grace", "lily", "aria", "layla", "nora", "hazel",
	"aurora", "violet",
}

// publicMaleNames is the public corpus of male first names.
var publicMaleNames = []string{
	"michael", "christopher", "matthew", "joshua", "tyler", "brandon",
	"austin", "cody", "ethan", "logan", "mason", "aiden", "carter",
	"wyatt", "hunter", "landon", "gavin", "chase", "blake", "cole",
	"dylan", "jordan", "ryan", "zachary", "nathan", "caleb", "connor",
	"trevor", "garrett", "dalton", "shane", "travis", "derek", "marcus",
	"brett", "kurt", "lance", "wade", "dale", "clint", "jacob", "william",
	"james", "benjamin", "lucas", "henry", "alexander", "sebastian",
	"jack", "owen", "daniel", "jackson", "levi", "isaac", "gabriel",
	"julian", "mateo", "anthony", "jaxon", "lincoln", "joseph", "luke",
	"samuel", "david",
}

// publicSurnames is the public corpus of surnames.
var publicSurnames = []string{
	"johnson", "williams", "jones", "garcia", "rodriguez", "martinez",
	"hernandez", "lopez", "gonzalez", "perez", "sanchez", "ramirez",
	"torres", "flores", "rivera", "gomez", "diaz", "cruz", "reyes",
	"morales", "ortiz", "gutierrez", "chavez", "ramos", "ruiz", "alvarez",
	"mendoza", "vasquez", "castillo", "jimenez", "moreno", "romero",
	"herrera", "medina", "aguilar", "vargas", "guzman", "mejia", "rojas",
	"salazar", "delgado", "pena", "rios", "silva", "vega", "soto",
	"carter", "parker", "bailey", "brooks", "price", "bennett", "wood",
	"barnes", "ross", "henderson", "coleman", "jenkins", "perry", "powell",
	"long", "patterson", "hughes", "washington", "butler", "simmons",
	"foster", "bryant", "alexander", "russell", "griffin", "hayes",
	"myers", "ford", "hamilton", "graham", "sullivan", "wallace", "woods",
	"cole", "west", "owens", "reynolds", "fisher", "ellis", "harrison",
	"gibson", "mcdonald", "duncan", "marshall", "gomes", "murray", "freeman",
	"wells", "webb", "simpson", "stevens", "tucker", "porter", "hunter",
	"hicks", "crawford", "hoover", "boyd", "mason", "whitaker", "kennedy",
	"warren", "dixon", "lambert", "reed", "burns", "gordon", "shaw",
	"holmes", "rice", "robertson", "hunt", "black", "daniels", "palmer",
}
