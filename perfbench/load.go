package main

import (
	"fmt"

	"samzasql/internal/bench"
	"samzasql/internal/kafka"
	"samzasql/internal/samza"
	"samzasql/internal/workload"
)

const (
	// partitions is the Orders (and Products) partition count (§5.1).
	partitions = 32
	// tsStep is the event-time gap between consecutive generated orders, so
	// rowtime identifies an input row: row i has rowtime startTs+(i+1)*tsStep.
	tsStep = 10
	// windowMillis is the sliding window's RANGE (5 minutes, Figure 6).
	windowMillis = 5 * 60 * 1000
	// ordersTopic and productsTopic are the catalog's topics for the
	// Orders stream and the Products relation.
	ordersTopic   = "orders"
	productsTopic = "products"
)

// startTs is the event time the generator starts from.
var startTs = workload.DefaultOrdersConfig().StartTs

// workloadSpec is one benchmark workload: a query over a generated Orders
// backlog, the hand-written native task it is compared with, and the rate of
// its open-loop phase.
type workloadSpec struct {
	name string
	sql  string
	// products is the number of distinct productIds in Orders; for join it
	// is also the number of rows in the Products relation.
	products int
	// messages is the backlog one drain trial processes.
	messages int
	// pacedRate is the open-loop send rate in msg/s, about a quarter of
	// the workload's SQL drain rate on a 2-vCPU machine, so polls return a
	// handful of messages instead of full blocks.
	pacedRate float64
	// relation marks workloads that bootstrap the Products relation.
	relation bool
	// native builds the job spec of the hand-written baseline writing to
	// topic out.
	native func(out string) *samza.JobSpec
}

var workloads = []*workloadSpec{
	{
		name:      "filter",
		sql:       bench.Queries["filter"],
		products:  100,
		messages:  1_000_000,
		pacedRate: 200_000,
		native: func(out string) *samza.JobSpec {
			return nativeJob(func() samza.StreamTask { return &bench.NativeFilterTask{Output: out} })
		},
	},
	{
		name:      "join",
		sql:       bench.Queries["join"],
		products:  100_000,
		messages:  300_000,
		pacedRate: 100_000,
		relation:  true,
		native: func(out string) *samza.JobSpec {
			j := nativeJob(func() samza.StreamTask {
				return &bench.NativeJoinTask{Output: out, OrdersTopic: ordersTopic, ProductsTopic: productsTopic}
			})
			j.Inputs = append(j.Inputs, samza.StreamSpec{Topic: productsTopic, Bootstrap: true})
			j.Stores = []samza.StoreSpec{{Name: bench.JoinStoreName, Changelog: true}}
			return j
		},
	},
	{
		name:      "window",
		sql:       bench.Queries["window"],
		products:  100,
		messages:  200_000,
		pacedRate: 50_000,
		native: func(out string) *samza.JobSpec {
			j := nativeJob(func() samza.StreamTask {
				return &bench.NativeSlidingWindowTask{Output: out, WindowMillis: windowMillis}
			})
			j.Stores = []samza.StoreSpec{{Name: bench.WindowStoreName, Changelog: true}}
			return j
		},
	},
}

// nativeJob is the baseline job spec as the repository's figure harness
// submits it: one container, commit every 100k messages.
func nativeJob(factory func() samza.StreamTask) *samza.JobSpec {
	return &samza.JobSpec{
		Inputs:      []samza.StreamSpec{{Topic: ordersTopic}},
		Containers:  1,
		CommitEvery: 100_000,
		Config:      map[string]string{},
		TaskFactory: factory,
	}
}

func workloadByName(name string) (*workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// order is one generated Orders row as the oracle sees it.
type order struct {
	ts, productID, orderID, units int64
}

// backlog is a generated Orders stream, encoded once per process. Every
// message's key and Avro value sit back to back in one byte slab, and the
// rows and offsets live in pointer-free slices, so the garbage collector
// never has to trace the backlog and every trial reuses the same bytes.
type backlog struct {
	orders []order
	slab   []byte
	// start[i] is where message i's key begins; its value ends at
	// start[i+1].
	start  []uint32
	keyLen []uint8
	// padLen is the length of the pad string that ends every value.
	padLen int
}

// generate encodes n Orders messages over the given number of products with
// the repository's workload generator, seeded by seed.
func generate(products, n int, seed int64) (*backlog, error) {
	cfg := workload.DefaultOrdersConfig()
	cfg.Products = products
	cfg.Seed = seed
	cfg.TsStepMillis = tsStep
	g := workload.NewOrdersGen(cfg)
	bl := &backlog{
		orders: make([]order, n),
		slab:   make([]byte, 0, n*(workload.TargetMessageBytes+8)),
		start:  make([]uint32, n+1),
		keyLen: make([]uint8, n),
	}
	for i := range n {
		row, key, value, err := g.Next()
		if err != nil {
			return nil, fmt.Errorf("generate order %d: %w", i, err)
		}
		bl.orders[i] = order{ts: row[0].(int64), productID: row[1].(int64), orderID: row[2].(int64), units: row[3].(int64)}
		bl.padLen = len(row[4].(string))
		bl.start[i] = uint32(len(bl.slab))
		bl.keyLen[i] = uint8(len(key))
		bl.slab = append(bl.slab, key...)
		bl.slab = append(bl.slab, value...)
	}
	bl.start[n] = uint32(len(bl.slab))
	return bl, nil
}

// message returns order i as a keyed, unassigned broker message whose key
// and value alias the slab.
func (b *backlog) message(i int) kafka.Message {
	s, e := b.start[i], b.start[i+1]
	k := s + uint32(b.keyLen[i])
	return kafka.Message{
		Partition: -1,
		Key:       b.slab[s:k:k],
		Value:     b.slab[k:e:e],
		Timestamp: b.orders[i].ts,
	}
}

// pad returns the pad string of order i: the last padLen bytes of its
// value, since pad is the record's last field.
func (b *backlog) pad(i int) []byte {
	e := b.start[i+1]
	return b.slab[e-uint32(b.padLen) : e]
}

// produce appends orders [0, n) to topic, partitioned by key.
func (b *backlog) produce(broker *kafka.Broker, topic string, n int) error {
	if err := broker.EnsureTopic(topic, kafka.TopicConfig{Partitions: partitions}); err != nil {
		return err
	}
	const chunk = 4096
	msgs := make([]kafka.Message, 0, chunk)
	for lo := 0; lo < n; lo += chunk {
		msgs = msgs[:0]
		for i := lo; i < min(lo+chunk, n); i++ {
			msgs = append(msgs, b.message(i))
		}
		if err := broker.ProduceBatch(topic, msgs); err != nil {
			return fmt.Errorf("load %s: %w", topic, err)
		}
	}
	return nil
}

// setupPrefix is the length of the shortest prefix of the orders in which
// every partition holds an order that produces an output row. Each task
// writes its output to its own partition, so over that prefix every task
// sends output.
func setupPrefix(bl *backlog, o *oracle) (int, error) {
	var seen [partitions]bool
	left := partitions
	for i := range bl.orders {
		if !o.emits(i) {
			continue
		}
		if p := kafka.PartitionForKey(bl.message(i).Key, partitions); !seen[p] {
			seen[p] = true
			if left--; left == 0 {
				return i + 1, nil
			}
		}
	}
	return 0, fmt.Errorf("the orders leave %d of %d partitions without output", left, partitions)
}

// loadInputs fills a fresh broker with the workload's input: the first n
// orders and, for join, the Products relation.
func loadInputs(broker *kafka.Broker, w *workloadSpec, bl *backlog, n int) error {
	if err := bl.produce(broker, ordersTopic, n); err != nil {
		return err
	}
	if w.relation {
		return workload.ProduceProducts(broker, productsTopic, partitions, w.products)
	}
	return nil
}
