(* Unit and property tests for Pcolor_util: RNG, bit utilities,
   statistics, table rendering and chart helpers. *)

module Rng = Pcolor.Util.Rng
module Bits = Pcolor.Util.Bits
module Itab = Pcolor.Util.Itab
module Stat = Pcolor.Obs.Stat
module Table = Pcolor.Util.Table
module Chart = Pcolor.Util.Chart

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bounds () =
  let r = Rng.create 11 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done;
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int r 0))

let test_rng_shuffle_permutes () =
  let r = Rng.create 9 in
  let arr = Array.init 20 Fun.id in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 20 Fun.id) sorted

let test_bits_log2 () =
  Alcotest.(check int) "log2 1" 0 (Bits.log2 1);
  Alcotest.(check int) "log2 4096" 12 (Bits.log2 4096);
  Alcotest.check_raises "log2 of non-power" (Invalid_argument "Bits.log2: 12 is not a power of two")
    (fun () -> ignore (Bits.log2 12))

let test_bits_pow2 () =
  Alcotest.(check bool) "1 is pow2" true (Bits.is_pow2 1);
  Alcotest.(check bool) "0 is not" false (Bits.is_pow2 0);
  Alcotest.(check bool) "-4 is not" false (Bits.is_pow2 (-4));
  Alcotest.(check bool) "6 is not" false (Bits.is_pow2 6);
  Alcotest.(check int) "next_pow2 17" 32 (Bits.next_pow2 17);
  Alcotest.(check int) "next_pow2 16" 16 (Bits.next_pow2 16)

let test_bits_div_round () =
  Alcotest.(check int) "ceil_div 7 2" 4 (Bits.ceil_div 7 2);
  Alcotest.(check int) "ceil_div 8 2" 4 (Bits.ceil_div 8 2);
  Alcotest.(check int) "round_up 5 4" 8 (Bits.round_up 5 4);
  Alcotest.(check int) "round_up exact" 8 (Bits.round_up 8 4)

let test_bits_popcount_iter () =
  Alcotest.(check int) "popcount 0" 0 (Bits.popcount 0);
  Alcotest.(check int) "popcount 0b1011" 3 (Bits.popcount 0b1011);
  Alcotest.(check (list int)) "bits_to_list" [ 0; 1; 3 ] (Bits.bits_to_list 0b1011)

let test_stat_geomean () =
  Alcotest.(check (float 1e-9)) "geomean [2;8]" 4.0 (Stat.geomean [ 2.0; 8.0 ]);
  Alcotest.(check (float 1e-9)) "geomean singleton" 5.0 (Stat.geomean [ 5.0 ]);
  Alcotest.check_raises "non-positive" (Invalid_argument "Stat.geomean: non-positive input")
    (fun () -> ignore (Stat.geomean [ 1.0; 0.0 ]))

let test_stat_helpers () =
  Alcotest.(check (float 1e-9)) "ratio zero denom" 0.0 (Stat.ratio 1.0 0.0);
  Alcotest.(check (float 1e-9)) "mean_of empty" 0.0 (Stat.mean_of [])

let test_table_render () =
  let t = Table.create ~title:"T" [ "name"; "v" ] in
  Table.add_row t [ "a"; "10" ];
  Table.add_separator t;
  Table.add_row t [ "bb" ];
  let s = Table.render t in
  Alcotest.(check bool) "has title" true (String.length s > 0 && s.[0] = 'T');
  Alcotest.(check bool) "pads left column" true
    (let lines = String.split_on_char '\n' s in
     List.exists (fun l -> String.length l >= 4 && String.sub l 0 2 = "bb") lines);
  Alcotest.check_raises "too many cells" (Invalid_argument "Table.add_row: too many cells")
    (fun () -> Table.add_row t [ "x"; "y"; "z" ])

let test_table_cells () =
  Alcotest.(check string) "fcell" "3.14" (Table.fcell ~prec:2 3.14159);
  Alcotest.(check string) "pcell" "12.5%" (Table.pcell 12.5)

let test_chart_bar () =
  Alcotest.(check string) "full bar" "####" (Chart.bar ~width:4 ~max_v:1.0 1.0);
  Alcotest.(check string) "empty bar" "    " (Chart.bar ~width:4 ~max_v:1.0 0.0);
  Alcotest.(check string) "half bar" "##  " (Chart.bar ~width:4 ~max_v:1.0 0.5);
  Alcotest.(check string) "zero max" "    " (Chart.bar ~width:4 ~max_v:0.0 1.0)

let test_chart_stacked () =
  let s = Chart.stacked_bar ~width:8 ~max_v:4.0 [ ("x", 2.0); ("o", 1.0) ] in
  Alcotest.(check string) "stack" "xxxxoo  " s

(* Cumulative rounding: three thirds of a full bar must fill all [width]
   cells.  Per-segment truncation gave 3+3+3 = 9 of 10 cells. *)
let test_chart_stacked_rounding () =
  let third = 1.0 /. 3.0 in
  let s =
    Chart.stacked_bar ~width:10 ~max_v:1.0 [ ("a", third); ("b", third); ("c", third) ]
  in
  Alcotest.(check string) "thirds fill" "aaabbbbccc" s;
  (* Segment widths always sum to round(width * total / max_v), whatever
     the per-segment fractions are. *)
  let s = Chart.stacked_bar ~width:7 ~max_v:7.0 [ ("x", 0.9); ("y", 0.9); ("z", 0.9) ] in
  Alcotest.(check string) "fractions accumulate" "xyz    " s

let test_chart_scatter () =
  let s = Chart.scatter ~title:"" ~cols:8 ~n_rows:2 ~x_max:8 [ (0, 0); (7, 1); (3, 0); (3, 1) ] in
  Alcotest.(check bool) "cpu0 at col0" true (String.length s > 0);
  let lines = String.split_on_char '\n' s in
  let l0 = List.nth lines 0 and l1 = List.nth lines 1 in
  Alcotest.(check char) "cpu0 glyph" '0' l0.[String.index l0 '|' + 1];
  Alcotest.(check char) "cpu1 glyph at end" '1' l1.[String.index l1 '|' + 8]

let test_chart_density () =
  let d = Chart.density [ (3, 1); (0, 0); (1, 0); (7, 1); (2, 0); (3, 0); (3, 1) ] in
  Alcotest.(check (list (triple int int int)))
    "row 0 dense, row 1 sparse; rows ascending" [ (0, 4, 4); (1, 2, 5) ] d

(* --- Itab: open-addressing int->int table --- *)

let test_itab_basic () =
  let t = Itab.create () in
  Alcotest.(check int) "empty" 0 (Itab.length t);
  Alcotest.(check int) "absent -> default" (-7) (Itab.find t 42 ~default:(-7));
  Itab.set t 42 1;
  Itab.set t 42 2;
  Alcotest.(check int) "set replaces" 2 (Itab.find t 42 ~default:(-7));
  Alcotest.(check int) "one binding" 1 (Itab.length t);
  Itab.add t 42 3;
  Itab.add t 7 10;
  Alcotest.(check int) "add accumulates" 5 (Itab.find t 42 ~default:0);
  Alcotest.(check int) "add inserts" 10 (Itab.find t 7 ~default:0);
  Alcotest.(check bool) "mem present" true (Itab.mem t 7);
  Itab.remove t 7;
  Alcotest.(check bool) "mem removed" false (Itab.mem t 7);
  Itab.remove t 7;
  Alcotest.(check int) "double remove harmless" 1 (Itab.length t);
  Alcotest.(check bool) "zero value is present" (Itab.set t 9 0; Itab.mem t 9) true;
  Itab.reset t;
  Alcotest.(check int) "reset empties" 0 (Itab.length t);
  Alcotest.check_raises "negative key rejected"
    (Invalid_argument "Itab: negative key") (fun () -> ignore (Itab.find t (-1) ~default:0))

let test_itab_grow_and_collisions () =
  let t = Itab.create ~capacity:8 () in
  (* Dense insertion far past the initial capacity forces several
     in-place growths; keys a multiple of a large stride collide. *)
  for k = 0 to 999 do
    Itab.set t (k * 4096) (k + 1)
  done;
  Alcotest.(check int) "all kept" 1000 (Itab.length t);
  Alcotest.(check bool) "capacity grew" true (Itab.capacity t >= 1000);
  for k = 0 to 999 do
    assert (Itab.find t (k * 4096) ~default:0 = k + 1)
  done;
  (* removing every other key must not break surviving probe chains *)
  for k = 0 to 999 do
    if k mod 2 = 0 then Itab.remove t (k * 4096)
  done;
  Alcotest.(check int) "half left" 500 (Itab.length t);
  for k = 0 to 999 do
    let want = if k mod 2 = 0 then 0 else k + 1 in
    assert (Itab.find t (k * 4096) ~default:0 = want)
  done;
  let sum = Itab.fold (fun _ v acc -> acc + v) t 0 in
  let n = ref 0 in
  Itab.iter (fun _ _ -> incr n) t;
  Alcotest.(check int) "iter visits all" 500 !n;
  Alcotest.(check int) "fold sums survivors" (500 * 501) sum

(* Differential test against Hashtbl over a random op sequence; the op
   stream mixes inserts, upserts, deletions and lookups over a small key
   space so chains form and backward-shift deletion is stressed. *)
let prop_itab_matches_hashtbl =
  QCheck.Test.make ~name:"Itab matches Hashtbl reference" ~count:300
    QCheck.(list_of_size (Gen.int_range 1 300) (triple (int_range 0 3) (int_range 0 24) small_nat))
    (fun ops ->
      let t = Itab.create ~capacity:8 () in
      let h = Hashtbl.create 16 in
      List.for_all
        (fun (op, key, v) ->
          let key = key * 4093 in
          (match op with
          | 0 ->
            Itab.set t key v;
            Hashtbl.replace h key v
          | 1 ->
            Itab.add t key v;
            Hashtbl.replace h key (v + Option.value ~default:0 (Hashtbl.find_opt h key))
          | 2 ->
            Itab.remove t key;
            Hashtbl.remove h key
          | _ -> ());
          Itab.find t key ~default:min_int
          = Option.value ~default:min_int (Hashtbl.find_opt h key)
          && Itab.length t = Hashtbl.length h)
        ops)

let prop_round_trip_bits =
  QCheck.Test.make ~name:"log2 inverts shift" ~count:100
    QCheck.(int_range 0 30)
    (fun k -> Bits.log2 (1 lsl k) = k)

let prop_popcount_additive =
  QCheck.Test.make ~name:"popcount of disjoint or adds" ~count:200
    QCheck.(pair (int_range 0 0xFFFF) (int_range 0 0xFFFF))
    (fun (a, b) ->
      let a = a land lnot b in
      Bits.popcount (a lor b) = Bits.popcount a + Bits.popcount b)

let suite =
  [
    ( "util",
      [
        Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
        Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
        Alcotest.test_case "rng shuffle" `Quick test_rng_shuffle_permutes;
        Alcotest.test_case "bits log2" `Quick test_bits_log2;
        Alcotest.test_case "bits pow2" `Quick test_bits_pow2;
        Alcotest.test_case "bits div/round" `Quick test_bits_div_round;
        Alcotest.test_case "bits popcount/iter" `Quick test_bits_popcount_iter;
        Alcotest.test_case "stat geomean" `Quick test_stat_geomean;
        Alcotest.test_case "stat helpers" `Quick test_stat_helpers;
        Alcotest.test_case "table render" `Quick test_table_render;
        Alcotest.test_case "table cells" `Quick test_table_cells;
        Alcotest.test_case "chart bar" `Quick test_chart_bar;
        Alcotest.test_case "chart stacked" `Quick test_chart_stacked;
        Alcotest.test_case "chart stacked rounding" `Quick test_chart_stacked_rounding;
        Alcotest.test_case "chart scatter" `Quick test_chart_scatter;
        Alcotest.test_case "chart density" `Quick test_chart_density;
        Alcotest.test_case "itab basics" `Quick test_itab_basic;
        Alcotest.test_case "itab grow/collisions/remove" `Quick test_itab_grow_and_collisions;
      ] );
    Helpers.qsuite "util:props"
      [
        prop_round_trip_bits;
        prop_popcount_additive;
        prop_itab_matches_hashtbl;
      ];
  ]
