// vending.v with three protection annotations that name no declared state,
// not in sorted order.
module fsm_module (
    input clk,
    input reset,
    input coin,
    input productSelected,
    output reg dispenseItem
);

// @protected NOPE_C
parameter IDLE = 3'b000;
parameter ACCEPTING_COINS = 3'b001;
parameter PRODUCT_SELECTED = 3'b010;
parameter DISPENSING_ITEM = 3'b011;  // @protected NOPE_A
// @protected NOPE_B

reg [2:0] current_state;
reg [2:0] next_state;

always @(posedge clk or posedge reset) begin
    if (reset) begin
        current_state <= IDLE;
    end else begin
        current_state <= next_state;
    end
end

always @(*) begin
    case (current_state)
        IDLE: begin
            dispenseItem = 0;
            next_state = ACCEPTING_COINS;
            if (productSelected) begin
                next_state = PRODUCT_SELECTED;
            end
        end
        ACCEPTING_COINS: begin
            dispenseItem = 0;
            next_state = ACCEPTING_COINS;
            if (coin) begin
                next_state = PRODUCT_SELECTED;
            end
            if (productSelected) begin
                next_state = PRODUCT_SELECTED;
            end
        end
        PRODUCT_SELECTED: begin
            dispenseItem = 0;
            next_state = DISPENSING_ITEM;
            if (!productSelected) begin
                next_state = ACCEPTING_COINS;
            end
        end
        DISPENSING_ITEM: begin
            dispenseItem = 1;
            next_state = IDLE;
        end
        default: begin
            dispenseItem = 0;
            next_state = IDLE;
        end
    endcase
end

endmodule
