package workload

import (
	"opportune/internal/afk"
	"opportune/internal/session"
)

// PartitionBases declares the analysis-key hash layout on the installed
// logs — the CLUSTERED BY physical design step the partition tests start from:
// TWTR and 4SQ bucketed on user_id (the cross-log join key), LAND on
// location_id, with the given bucket count. The declaration goes to the
// catalog entry, the one record of a dataset's layout.
func PartitionBases(s *session.Session, parts int) {
	for _, b := range []struct{ table, col string }{
		{"twtr", "user_id"},
		{"fsq", "user_id"},
		{"land", "location_id"},
	} {
		sig := afk.BaseSig(b.table, b.col).ID()
		s.Cat.SetPartitioning(b.table, afk.Partitioning{Sigs: []string{sig}, Parts: parts})
	}
}

// PartitionQueries is the join/group-heavy workload run over that layout.
// Each query is annotated by how partition-aware planning sees it against
// PartitionBases:
//
//   - pq_user_activity, pq_user_window: GROUP BY user_id over twtr — layout
//     hits (the filter in pq_user_window preserves bucket residency);
//   - pq_social: TWTR⋈4SQ on user_id plus a downstream GROUP BY user_id —
//     a co-partitioned join (the 4SQ side is renamed, proving the match is
//     by attribute signature, not column name), and the join's bucketed
//     output feeds the group-by shuffle-free as well;
//   - pq_checkins_loc: GROUP BY location_id over fsq — a layout miss (fsq
//     is bucketed on user_id);
//   - pq_place_visits: 4SQ⋈LAND on location_id — a miss (only one side is
//     bucketed on the join key), so the join pays a full shuffle.
func PartitionQueries() []Query {
	return []Query{
		{Name: "pq_user_activity", SQL: `CREATE TABLE pq_user_activity AS
  SELECT user_id, COUNT(*) AS n_tweets, MAX(ts) AS last_ts
  FROM twtr GROUP BY user_id`},
		{Name: "pq_social", SQL: `CREATE TABLE pq_social AS
  SELECT user_id, COUNT(*) AS events FROM
    (SELECT user_id, tweet_id FROM twtr)
    JOIN (SELECT user_id AS fuser, checkin_id FROM fsq) ON user_id = fuser
  GROUP BY user_id`},
		{Name: "pq_user_window", SQL: `CREATE TABLE pq_user_window AS
  SELECT user_id, COUNT(*) AS n FROM twtr WHERE ts >= 1600100000 GROUP BY user_id`},
		{Name: "pq_checkins_loc", SQL: `CREATE TABLE pq_checkins_loc AS
  SELECT location_id, COUNT(*) AS visits FROM fsq GROUP BY location_id`},
		{Name: "pq_place_visits", SQL: `CREATE TABLE pq_place_visits AS
  SELECT category, COUNT(*) AS visits FROM
    (SELECT location_id AS cloc, checkin_id FROM fsq)
    JOIN (SELECT location_id, category FROM land) ON cloc = location_id
  GROUP BY category`},
	}
}
