module blockpar/bench

go 1.22

require blockpar v0.0.0

replace blockpar => ../
