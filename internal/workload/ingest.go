package workload

import (
	"math/rand"

	"opportune/internal/data"
	"opportune/internal/value"
)

// IngestQueries returns the standing views an append-heavy ingest pipeline
// keeps warm over the TWTR firehose, chosen to cover every maintenance
// class the session implements:
//
//   - ing_activity: distributive aggregates (COUNT/MIN/MAX) per user —
//     incrementally maintained by a merge-by-key delta fold;
//   - ing_replies: a map-only filtered projection — maintained by plain
//     delta append;
//   - ing_visits: an aggregate over 4SQ only — untouched by TWTR appends;
//   - ing_social: a COUNT per user over a TWTR⋈4SQ join — linear in either
//     log, so the grouped view is folded from a delta join; the join output
//     beneath it is the fallback path, invalidated on the first append.
func IngestQueries() []Query {
	return []Query{
		{Name: "ing_activity", SQL: `CREATE TABLE ing_activity AS
  SELECT user_id, COUNT(*) AS n_tweets, MIN(ts) AS first_ts, MAX(ts) AS last_ts
  FROM twtr GROUP BY user_id`},
		{Name: "ing_replies", SQL: `CREATE TABLE ing_replies AS
  SELECT tweet_id, user_id, reply_to FROM twtr WHERE reply_to >= 0`},
		{Name: "ing_visits", SQL: `CREATE TABLE ing_visits AS
  SELECT location_id, COUNT(*) AS visits FROM fsq GROUP BY location_id`},
		{Name: "ing_social", SQL: `CREATE TABLE ing_social AS
  SELECT user_id, COUNT(*) AS events FROM
    (SELECT user_id, tweet_id FROM twtr)
    JOIN (SELECT user_id AS fuser, checkin_id FROM fsq) ON user_id = fuser
  GROUP BY user_id`},
	}
}

// AppendBatch builds batch number `epoch` of n fresh TWTR rows, shaped like
// the generator's tweets (topical text, mostly-null geo, skewed replies)
// with tweet ids and timestamps continuing past the installed log.
// Deterministic in (sc.Seed, epoch, n), so experiment arms see identical
// deltas.
func AppendBatch(sc Scale, epoch, n int) []data.Row {
	rng := rand.New(rand.NewSource(sc.Seed*1000003 + int64(epoch) + 1))
	users := sc.Users
	if users <= 0 {
		users = sc.Tweets/20 + 1
	}
	rows := make([]data.Row, n)
	for i := 0; i < n; i++ {
		id := sc.Tweets + epoch*n + i
		u := rng.Intn(users)
		text := genText(rng, rng.Intn(len(topics)), 0.2+0.8*rng.Float64())
		lat, lon := value.NullV, value.NullV
		if rng.Float64() < 0.35 {
			lat = value.NewFloat(37 + rng.Float64()*2)
			lon = value.NewFloat(-122 + rng.Float64()*2)
		}
		reply := value.NullV
		if rng.Float64() < 0.3 {
			reply = value.NewInt(int64(rng.Intn(users)))
		}
		rows[i] = data.Row{
			value.NewInt(int64(id)),
			value.NewInt(int64(u)),
			value.NewInt(int64(1600000000 + id*13)),
			value.NewStr(text),
			lat, lon, reply,
		}
	}
	return rows
}
