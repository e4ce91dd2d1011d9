package workload

import (
	"fmt"
	"time"

	"repro/internal/batcher"
	"repro/internal/candidates"
	"repro/internal/catalog"
	"repro/internal/cq"
	"repro/internal/dist"
	"repro/internal/relationdb"
	"repro/internal/remotedb"
	"repro/internal/schemagraph"
	"repro/internal/tuple"
)

// PfamScale sizes the Pfam/InterPro proxy. §7.5's finding — ATC-FULL gains
// little on the real data because it is "significantly larger" and raises
// contention — depends on this workload carrying roughly an order of
// magnitude more rows per touched relation than the GUS default.
type PfamScale struct {
	// L is the base cardinality; relation sizes are small multiples of it.
	L int
	// Years is the publication-year span for the literature score attribute.
	Years int
}

// PfamScaleDefault is the test/bench scale.
func PfamScaleDefault() PfamScale { return PfamScale{L: 8000, Years: 30} }

const pfamSeed = 0x50464d // "PFM"

// pfamRel declares one relation of the proxy schema.
type pfamRel struct {
	name string
	db   string
	cols []tuple.Column
	card int
	// termCol is the content column indexed for keywords (-1 none).
	termCol int
	terms   []string
	// keyCard: distinct values of each column (estimation).
	gen func(rng *dist.RNG, r int, card int) []tuple.Value
}

// Pfam builds the Pfam/InterPro proxy workload (§7.5): the documented
// protein-family schema split across a Pfam database and an InterPro
// database, text-match scores captured per tuple, plus one extra score
// attribute (publication year), 15 user queries of 4 conjunctive queries
// each, posed in sequence with random delays of up to 6 seconds.
func Pfam(scale PfamScale) (*Workload, error) {
	L := scale.L
	store := map[string]*relationdb.Store{
		"pfam":     relationdb.NewStore("pfam"),
		"interpro": relationdb.NewStore("interpro"),
	}
	cat := catalog.New()
	sg := schemagraph.New()
	rng := dist.New(pfamSeed)

	intCol := func(n string) tuple.Column { return tuple.Column{Name: n, Type: tuple.KindInt} }
	keyCol := func(n string) tuple.Column { return tuple.Column{Name: n, Type: tuple.KindInt, Key: true} }
	strCol := func(n string) tuple.Column { return tuple.Column{Name: n, Type: tuple.KindString} }
	scoreCol := func(n string) tuple.Column { return tuple.Column{Name: n, Type: tuple.KindFloat, Score: true} }

	famTerms := bioTerms[:24]
	entryTerms := bioTerms[8:32]
	goTerms := bioTerms[16:40]
	litTerms := bioTerms[:16]
	clanTerms := bioTerms[4:20]

	rels := []pfamRel{
		{
			name: "pfamA", db: "pfam", card: L, termCol: 2, terms: famTerms,
			cols: []tuple.Column{keyCol("pfamA_acc"), strCol("pfamA_id"), strCol("descr"), scoreCol("tscore")},
		},
		{
			name: "pfamseq", db: "pfam", card: 3 * L, termCol: 2, terms: speciesTerms,
			cols: []tuple.Column{keyCol("seq_acc"), strCol("seq_name"), strCol("species"), scoreCol("tscore")},
		},
		{
			name: "pfamA_reg", db: "pfam", card: 4 * L, termCol: -1,
			cols: []tuple.Column{intCol("pfamA_acc"), intCol("seq_acc"), scoreCol("sim")},
		},
		{
			name: "literature", db: "pfam", card: L, termCol: 1, terms: litTerms,
			cols: []tuple.Column{keyCol("pub"), strCol("title"), scoreCol("yscore")},
		},
		{
			name: "pfam_lit", db: "pfam", card: 2 * L, termCol: -1,
			cols: []tuple.Column{intCol("pfamA_acc"), intCol("pub"), scoreCol("sim")},
		},
		{
			name: "clan", db: "pfam", card: L / 10, termCol: 1, terms: clanTerms,
			cols: []tuple.Column{keyCol("clan_acc"), strCol("clan_name"), scoreCol("tscore")},
		},
		{
			name: "clan_member", db: "pfam", card: L / 2, termCol: -1,
			cols: []tuple.Column{intCol("clan_acc"), intCol("pfamA_acc"), scoreCol("sim")},
		},
		{
			// The mapping table relating Pfam families to InterPro entries.
			name: "pfam2interpro", db: "pfam", card: L, termCol: -1,
			cols: []tuple.Column{intCol("pfamA_acc"), intCol("entry"), scoreCol("sim")},
		},
		{
			name: "interpro_entry", db: "interpro", card: L, termCol: 1, terms: entryTerms,
			cols: []tuple.Column{keyCol("entry"), strCol("entry_name"), scoreCol("tscore")},
		},
		{
			name: "interpro2go", db: "interpro", card: 2 * L, termCol: -1,
			cols: []tuple.Column{intCol("entry"), intCol("go_id"), scoreCol("sim")},
		},
		{
			name: "go_term", db: "interpro", card: L / 2, termCol: 1, terms: goTerms,
			cols: []tuple.Column{keyCol("go_id"), strCol("go_name"), scoreCol("tscore")},
		},
		{
			// Score-less protein table: probed, never streamed (§5.1.1).
			name: "protein", db: "interpro", card: 3 * L, termCol: -1,
			cols: []tuple.Column{keyCol("uniprot"), strCol("prot_name"), intCol("taxon")},
		},
		{
			name: "interpro_protein", db: "interpro", card: 4 * L, termCol: -1,
			cols: []tuple.Column{intCol("entry"), intCol("uniprot"), scoreCol("sim")},
		},
	}
	// Foreign-key style joins (edges annotated with learned costs).
	edges := []pfamEdge{
		{"pfamA_reg", 0, "pfamA", 0}, {"pfamA_reg", 1, "pfamseq", 0},
		{"pfam_lit", 0, "pfamA", 0}, {"pfam_lit", 1, "literature", 0},
		{"clan_member", 0, "clan", 0}, {"clan_member", 1, "pfamA", 0},
		{"pfam2interpro", 0, "pfamA", 0}, {"pfam2interpro", 1, "interpro_entry", 0},
		{"interpro2go", 0, "interpro_entry", 0}, {"interpro2go", 1, "go_term", 0},
		{"interpro_protein", 0, "interpro_entry", 0}, {"interpro_protein", 1, "protein", 0},
	}

	// keyRange maps relation -> key cardinality for foreign key draws.
	keyRange := map[string]int{}
	for _, r := range rels {
		keyRange[r.name] = r.card
	}
	for i := range rels {
		r := rels[i]
		schema := tuple.NewSchema(r.name, r.cols...)
		dataSeed := pfamSeed*31 + uint64(i)*101
		relRef := r
		// The loader seeds its own RNG, so shards racing on a relation's
		// first access each materialise the same rows.
		store[r.db].PutLazy(r.name, func() *relationdb.Relation {
			return materialisePfam(relRef, schema, dist.New(dataSeed), keyRange, edges)
		})
		dist := make([]float64, len(r.cols))
		for ci := range dist {
			dist[ci] = float64(r.card)
		}
		if r.termCol >= 0 {
			dist[r.termCol] = float64(len(r.terms))
		}
		// Link tables reference their endpoints' key spaces.
		for _, e := range edges {
			if e.from == r.name {
				dist[e.fcol] = minf(r.card, keyRange[e.to])
			}
		}
		hasScore := schema.HasScore()
		cat.AddStats(&catalog.RelStats{
			Name: r.name, DB: r.db, Card: float64(r.card), Distinct: dist,
			MaxScore: 1.0, HasScore: hasScore, Schema: schema,
		})
		sg.AddNode(&schemagraph.Node{Rel: r.name, DB: r.db, Schema: schema, Authority: 0.2 * rng.Float64(), LinkTable: r.termCol < 0})
	}
	for _, e := range edges {
		sg.AddEdge(&schemagraph.Edge{From: e.from, To: e.to, FromCol: e.fcol, ToCol: e.tcol, Cost: 0.3 + rng.Float64()})
	}
	// Keyword index: MySQL-text-search-style matches on every term column.
	for _, r := range rels {
		if r.termCol < 0 {
			continue
		}
		for _, term := range r.terms {
			sg.IndexTerm(term, schemagraph.Match{Rel: r.name, Col: r.termCol, Score: 0.5 + 0.5*rng.Float64()})
		}
	}

	fleet := remotedb.NewFleet(remotedb.New(store["pfam"]), remotedb.New(store["interpro"]))
	w := &Workload{Name: "pfam", Fleet: fleet, Catalog: cat, Schema: sg}

	// 15 keyword queries, 4 CQs each, arrivals within 6 s of one another.
	cfg := candidates.Config{
		Graph:             sg,
		Catalog:           cat,
		MatchesPerKeyword: 3,
		MaxAtoms:          6,
		MaxPathLen:        4,
		PathVariants:      3,
		MaxCQs:            4,
		Family:            candidates.FamilyDiscover,
	}
	w.Gen = cfg
	terms := sg.Terms()
	qrng := dist.New(pfamSeed + 17)
	kwZipf := dist.NewZipf(qrng, len(terms), 1.6)
	arrivals := arrivalTimes(15, 6*time.Second, dist.New(pfamSeed+23).Float64)
	for i := 1; i <= 15; i++ {
		var uq *cq.UQ
		for attempt := 0; attempt < 80; attempt++ {
			k1, k2 := terms[kwZipf.Next()], terms[kwZipf.Next()]
			if k1 == k2 {
				continue
			}
			got, err := candidates.Generate(cfg, fmt.Sprintf("UQ%d", i), []string{k1, k2}, 50, dist.New(uint64(5000+i)))
			if err == nil && len(got.CQs) >= 2 {
				uq = got
				break
			}
		}
		if uq == nil {
			return nil, fmt.Errorf("workload: could not generate pfam user query %d", i)
		}
		w.Submissions = append(w.Submissions, batcher.Submission{At: arrivals[i-1], UQ: uq})
	}
	return w, nil
}

// pfamEdge is a foreign-key style join between proxy relations.
type pfamEdge struct {
	from string
	fcol int
	to   string
	tcol int
}

func materialisePfam(r pfamRel, schema *tuple.Schema, rng *dist.RNG, keyRange map[string]int, edges []pfamEdge) *relationdb.Relation {
	// Per-column foreign-key spaces, with Zipfian key popularity (§7).
	fkZipf := map[int]*dist.Zipf{}
	for _, e := range edges {
		if e.from == r.name {
			fkZipf[e.fcol] = dist.NewZipf(rng, keyRange[e.to], 0.5)
		}
	}
	var termZipf *dist.Zipf
	if r.termCol >= 0 {
		termZipf = dist.NewZipf(rng, len(r.terms), 0.9)
	}
	rows := make([]*tuple.Tuple, 0, r.card)
	for i := 0; i < r.card; i++ {
		vals := make([]tuple.Value, len(r.cols))
		for ci, c := range r.cols {
			switch {
			case c.Key:
				vals[ci] = tuple.Int(int64(i))
			case c.Score:
				vals[ci] = tuple.Float(dist.ZipfScore(i, r.card))
			case ci == r.termCol:
				vals[ci] = tuple.String(r.terms[termZipf.Next()])
			case c.Type == tuple.KindInt:
				if z, ok := fkZipf[ci]; ok {
					vals[ci] = tuple.Int(int64(z.Next()))
				} else {
					vals[ci] = tuple.Int(int64(rng.Intn(maxi(r.card, 1))))
				}
			default:
				vals[ci] = tuple.String(fmt.Sprintf("%s_%d", r.name, i))
			}
		}
		rows = append(rows, tuple.New(schema, vals...))
	}
	return relationdb.NewRelation(schema, rows)
}
