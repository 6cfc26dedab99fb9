package chaos

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// fingerprintSeeds × fingerprintConfigs are the 99 runs whose fingerprints
// are pinned: any change to a chaos schedule, to what the protocol does under
// it or to what the report prints moves some of them.
var fingerprintSeeds = []int64{1, 2, 3, 5, 7, 8, 11, 13, 21, 34, 42}

var fingerprintConfigs = []struct {
	name string
	cfg  Config
}{
	{"plain", Config{}},
	{"pipeline8", Config{Pipeline: 8}},
	{"smalllog", Config{LogMaxBytes: 2048}},
	{"pipeline4/cache30ms", Config{Pipeline: 4, CacheTTL: 30 * time.Millisecond}},
	{"pipeline4/group", Config{Pipeline: 4, GroupLinger: 200 * time.Microsecond}},
	{"statstorm", Config{StatStorm: true, CacheTTL: 40 * time.Millisecond}},
	{"pipeline4/smalllog", Config{Pipeline: 4, LogMaxBytes: 2048}},
	{"cache40ms", Config{CacheTTL: 40 * time.Millisecond}},
	{"pipeline4", Config{Pipeline: 4}},
}

// fingerprints is each run's Report.Fingerprint, keyed config/seed.
var fingerprints = map[string]string{
	"plain/1":                "8c709e1cd852c57c",
	"plain/2":                "3ca7af0d6b1859ec",
	"plain/3":                "c00216d4ec54bf00",
	"plain/5":                "c1103345542a8fb2",
	"plain/7":                "1c75a6007b974bfd",
	"plain/8":                "cb35fabf2624ffde",
	"plain/11":               "2c4b5a295422546d",
	"plain/13":               "67f54da2f361fc28",
	"plain/21":               "8bd6f17cf9b4dc27",
	"plain/34":               "9ab4629a0aa15c89",
	"plain/42":               "0798f3f733cc7d5f",
	"pipeline8/1":            "3cd0c3900767f48a",
	"pipeline8/2":            "4d52173015cb9d75",
	"pipeline8/3":            "c8ec84c162c94388",
	"pipeline8/5":            "126991ee9d3c073a",
	"pipeline8/7":            "962cf2dfd00598a3",
	"pipeline8/8":            "17908e1243251e0b",
	"pipeline8/11":           "fc099ce797181bba",
	"pipeline8/13":           "6e369340058c6154",
	"pipeline8/21":           "35fd80db8223f353",
	"pipeline8/34":           "e39c9a66f1049838",
	"pipeline8/42":           "88a1e01ae89dd3a8",
	"smalllog/1":             "3e0ac6067b2bfced",
	"smalllog/2":             "524178c28c255533",
	"smalllog/3":             "7fa188bee3b7a17c",
	"smalllog/5":             "eb60f9edc7ad39a7",
	"smalllog/7":             "c8f5e9c8367a9564",
	"smalllog/8":             "06d9d93038a563f2",
	"smalllog/11":            "753ac94215dc421e",
	"smalllog/13":            "4fd4dde1fc0b46fd",
	"smalllog/21":            "ca233d249708a06d",
	"smalllog/34":            "a93bd4dce2d85bd3",
	"smalllog/42":            "5b2a3be6bfddb54b",
	"pipeline4/cache30ms/1":  "2ebb4f896791f299",
	"pipeline4/cache30ms/2":  "33666ef7023af39d",
	"pipeline4/cache30ms/3":  "c467b23c8cc87afa",
	"pipeline4/cache30ms/5":  "3374159d9e9df114",
	"pipeline4/cache30ms/7":  "239a2511f2be7fd9",
	"pipeline4/cache30ms/8":  "569613fab4461035",
	"pipeline4/cache30ms/11": "22b621ff35829833",
	"pipeline4/cache30ms/13": "399905cee05a7f01",
	"pipeline4/cache30ms/21": "2fb55b708cf7049c",
	"pipeline4/cache30ms/34": "12165ed6830ad096",
	"pipeline4/cache30ms/42": "9059a14f0e642b33",
	"pipeline4/group/1":      "59a3b55428f130ce",
	"pipeline4/group/2":      "d172776ce6c75dd7",
	"pipeline4/group/3":      "c902eaf185d16f9f",
	"pipeline4/group/5":      "ed620d8f910db735",
	"pipeline4/group/7":      "364cc28dbbbaba4d",
	"pipeline4/group/8":      "160aec8042969287",
	"pipeline4/group/11":     "d4c093f4f7c3a7ad",
	"pipeline4/group/13":     "73cc0053b8957f5f",
	"pipeline4/group/21":     "73fd3868db1b8895",
	"pipeline4/group/34":     "fe33eb963ee10c79",
	"pipeline4/group/42":     "aaf24d683c4e40d2",
	"statstorm/1":            "76400fd032a26418",
	"statstorm/2":            "20f813b6bd56ddc9",
	"statstorm/3":            "d3e49a0f4b342fbb",
	"statstorm/5":            "929b7666f866b744",
	"statstorm/7":            "66e3e490be806cb5",
	"statstorm/8":            "08764a5ebb962a47",
	"statstorm/11":           "17d4e5d8425b9b35",
	"statstorm/13":           "eebedc2978af1062",
	"statstorm/21":           "556047e95fcb2834",
	"statstorm/34":           "aa2dee49437dbbd9",
	"statstorm/42":           "36bc51abede7e0df",
	"pipeline4/smalllog/1":   "93388e9dd4f727f9",
	"pipeline4/smalllog/2":   "3e5f48bc0ef5bd10",
	"pipeline4/smalllog/3":   "c312f8b56037e4d0",
	"pipeline4/smalllog/5":   "601bf49a9f1963e9",
	"pipeline4/smalllog/7":   "309dd4a1d9f63fec",
	"pipeline4/smalllog/8":   "7d4ad182fbae55aa",
	"pipeline4/smalllog/11":  "d50090124f7514f6",
	"pipeline4/smalllog/13":  "dfb784c4bccd22c5",
	"pipeline4/smalllog/21":  "7ef3946e9d56e5c8",
	"pipeline4/smalllog/34":  "c500d113e0b6f401",
	"pipeline4/smalllog/42":  "ff9f0d76676cea98",
	"cache40ms/1":            "13803fbad9d77d67",
	"cache40ms/2":            "a10a60c5c4784431",
	"cache40ms/3":            "ce0f9da58da04067",
	"cache40ms/5":            "a541cbe9de2a9a3b",
	"cache40ms/7":            "f2261f6387ca3ba2",
	"cache40ms/8":            "3ece123ca2fb8052",
	"cache40ms/11":           "c34bcda8586fc30e",
	"cache40ms/13":           "87ede43052970b4f",
	"cache40ms/21":           "7d3536924afc4301",
	"cache40ms/34":           "382ec8fb990cdb73",
	"cache40ms/42":           "55041e293ff62440",
	"pipeline4/1":            "df301a33e9929e65",
	"pipeline4/2":            "18449f30cd0e4d51",
	"pipeline4/3":            "26e8f5d5bb6252ec",
	"pipeline4/5":            "58b7ec8505e3ac09",
	"pipeline4/7":            "0368a339ba6cefef",
	"pipeline4/8":            "1c1315bd6ccb03f9",
	"pipeline4/11":           "164263178cdbcc0e",
	"pipeline4/13":           "fea5368200b7f334",
	"pipeline4/21":           "79edac9da54b9708",
	"pipeline4/34":           "cb4a78d74daa1ca4",
	"pipeline4/42":           "d35999876929612b",
}

// TestFingerprints runs the 99 and compares each fingerprint with its pin. A
// failure prints the whole table as it now reads, ready to paste over
// fingerprints once the move is understood.
func TestFingerprints(t *testing.T) {
	var keys, now []string
	moved, width := 0, 0
	for _, fc := range fingerprintConfigs {
		for _, seed := range fingerprintSeeds {
			cfg := fc.cfg
			cfg.Seed = seed
			key := fmt.Sprintf("%s/%d", fc.name, seed)
			got := Run(cfg).Fingerprint()
			if got != fingerprints[key] {
				moved++
			}
			keys, now = append(keys, key), append(now, got)
			width = max(width, len(key)+3) // quoted, with its colon
		}
	}
	if moved > 0 {
		var table strings.Builder
		for i, key := range keys {
			fmt.Fprintf(&table, "\t%-*s %q,\n", width, fmt.Sprintf("%q:", key), now[i])
		}
		t.Errorf("%d of %d fingerprints moved; the table now reads:\n%s", moved, len(keys), table.String())
	}
}
